package engine

import (
	"bytes"
	"errors"
	"testing"

	"adhoctx/internal/wal"
)

// TestApplyReplicatedRejectsGaps: a chunk may overlap what the follower has
// or continue it exactly; one that skips an LSN is refused whole and leaves
// the follower's log and rows as they were, so the late chunk can still land.
func TestApplyReplicatedRejectsGaps(t *testing.T) {
	leader := newGroupCommitEngine(t, nil)
	for i := int64(1); i <= 6; i++ {
		if _, err := commitOne(leader, i); err != nil {
			t.Fatal(err)
		}
	}
	// bounds[i] is the log offset where LSN i+1 starts.
	raw := leader.WALBytes()
	bounds := []int{0}
	if err := wal.Scan(raw, func(_ uint64, rec []byte) error {
		bounds = append(bounds, bounds[len(bounds)-1]+len(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	chunk := func(first, last int) []byte { return raw[bounds[first-1]:bounds[last]] }

	for _, tc := range []struct {
		name        string
		have        int // follower already applied LSN 1..have
		first, last int // the chunk under test
		wantApplied uint64
		wantGap     bool
	}{
		{"exact", 3, 4, 6, 6, false},
		{"overlap", 3, 2, 5, 5, false},
		{"duplicate", 3, 1, 3, 3, false},
		{"gap", 3, 5, 6, 3, true},
		{"gap on an empty follower", 0, 2, 3, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fol := newGroupCommitEngine(t, nil)
			if tc.have > 0 {
				if _, err := fol.ApplyReplicated(chunk(1, tc.have)); err != nil {
					t.Fatal(err)
				}
			}
			before := fol.WALBytes()
			applied, err := fol.ApplyReplicated(chunk(tc.first, tc.last))
			if tc.wantGap {
				if !errors.Is(err, ErrReplicationGap) {
					t.Fatalf("err = %v, want ErrReplicationGap", err)
				}
				if !bytes.Equal(fol.WALBytes(), before) {
					t.Fatal("a refused chunk changed the follower's log")
				}
			} else if err != nil || applied != tc.wantApplied {
				t.Fatalf("applied = %d, err = %v; want %d", applied, err, tc.wantApplied)
			}
			if got := fol.AppliedLSN(); got != tc.wantApplied {
				t.Fatalf("AppliedLSN = %d, want %d", got, tc.wantApplied)
			}
			if got := len(countRows(t, fol)); got != int(tc.wantApplied) {
				t.Fatalf("follower has %d rows, want %d", got, tc.wantApplied)
			}
		})
	}
}
