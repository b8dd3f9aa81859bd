package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhoctx/internal/faults"
	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

// frame encodes one synthetic WAL record for lsn.
func frame(t testing.TB, lsn uint64) []byte {
	t.Helper()
	enc, err := wal.Encode(wal.Record{
		LSN:   lsn,
		TxnID: lsn,
		Ops: []wal.Op{{
			Kind:  wal.OpInsert,
			Table: "accounts",
			PK:    int64(lsn),
			Row:   storage.Row{int64(lsn), fmt.Sprintf("row-%d", lsn)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// lsnsOf decodes raw and returns the record LSNs in order.
func lsnsOf(t testing.TB, raw []byte) []uint64 {
	t.Helper()
	recs, err := wal.Records(raw)
	if err != nil {
		t.Fatalf("decoding recovered frames: %v", err)
	}
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.LSN
	}
	return out
}

func wantLSNs(t testing.TB, raw []byte, want ...uint64) {
	t.Helper()
	got := lsnsOf(t, raw)
	if len(got) != len(want) {
		t.Fatalf("recovered LSNs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered LSNs %v, want %v", got, want)
		}
	}
}

// TestRoundTrip: frames synced through the store come back whole from a cold
// re-open, in order, with the right LastLSN.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	for lsn := uint64(1); lsn <= 5; lsn++ {
		if err := s.Append(frame(t, lsn)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SyncedLSN(); got != 5 {
		t.Fatalf("SyncedLSN = %d, want 5", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantLSNs(t, rec2.Tail, 1, 2, 3, 4, 5)
	if rec2.LastLSN != 5 || rec2.Checkpoint != nil || rec2.TruncatedTail != 0 {
		t.Fatalf("recovered = %+v, want LastLSN 5, no checkpoint, no truncation", rec2)
	}

	// The reopened store appends where the old one left off.
	if err := s2.Append(frame(t, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, rec3.Tail, 1, 2, 3, 4, 5, 6)
}

// TestRotation: a tiny segment threshold produces multiple segment files,
// named by their first LSN, and recovery stitches them back in order.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for lsn := uint64(1); lsn <= n; lsn++ {
		if err := s.Append(frame(t, lsn)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("got %d segments with a 128-byte threshold, want several: %v", len(segs), segs)
	}
	for _, p := range segs {
		base := filepath.Base(p)
		if !strings.HasPrefix(base, "wal-") || !strings.HasSuffix(base, ".seg") {
			t.Fatalf("segment name %q", base)
		}
	}
	s.Close()

	_, rec, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, n)
	for i := range want {
		want[i] = uint64(i + 1)
	}
	wantLSNs(t, rec.Tail, want...)
}

// TestBatchNeverSplitsSegments: a multi-frame batch staged by several Appends
// and flushed by one Sync lands in a single segment even when it overshoots
// the threshold.
func TestBatchNeverSplitsSegments(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 6; lsn++ {
		if err := s.Append(frame(t, lsn)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Segments()); got != 1 {
		t.Fatalf("batch split across %d segments", got)
	}
	s.Close()
	_, rec, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, rec.Tail, 1, 2, 3, 4, 5, 6)
}

// snapshotFor builds a checkpoint body: one synthetic record per live row.
func snapshotFor(t testing.TB, lsns ...uint64) []byte {
	t.Helper()
	var b []byte
	for _, lsn := range lsns {
		b = append(b, frame(t, lsn)...)
	}
	return b
}

// TestCheckpointPrunesAndRecovers: after a checkpoint at LSN k, covered
// segments are deleted, and recovery returns the checkpoint body plus only
// the frames past k.
func TestCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 20; lsn++ {
		if err := s.Append(frame(t, lsn)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	before := len(s.Segments())
	if err := s.Checkpoint(snapshotFor(t, 1, 2, 3), 15); err != nil {
		t.Fatal(err)
	}
	after := len(s.Segments())
	if after >= before {
		t.Fatalf("checkpoint pruned nothing: %d -> %d segments", before, after)
	}
	if got := s.CheckpointLSN(); got != 15 {
		t.Fatalf("CheckpointLSN = %d, want 15", got)
	}
	s.Close()

	s2, rec, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointLSN != 15 {
		t.Fatalf("recovered CheckpointLSN = %d, want 15", rec.CheckpointLSN)
	}
	wantLSNs(t, rec.Checkpoint, 1, 2, 3)
	got := lsnsOf(t, rec.Tail)
	for _, lsn := range got {
		if lsn <= 15 {
			t.Fatalf("tail contains checkpointed LSN %d: %v", lsn, got)
		}
	}
	if got[len(got)-1] != 20 || rec.LastLSN != 20 {
		t.Fatalf("tail %v, LastLSN %d, want last 20", got, rec.LastLSN)
	}

	// A second checkpoint replaces the first and drops the old file.
	if err := s2.Checkpoint(snapshotFor(t, 1, 2, 3, 4), 20); err != nil {
		t.Fatal(err)
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if len(cks) != 1 {
		t.Fatalf("%d checkpoint files after re-checkpoint, want 1: %v", len(cks), cks)
	}
	// Stale checkpoint request is a no-op.
	if err := s2.Checkpoint(snapshotFor(t, 9), 10); err != nil {
		t.Fatal(err)
	}
	if got := s2.CheckpointLSN(); got != 20 {
		t.Fatalf("stale checkpoint moved the LSN: %d", got)
	}
	s2.Close()
}

// TestTornTailTruncated: a write torn partway through the final frame is cut
// at the first bad frame on recovery — every synced record survives, nothing
// past the cut is surfaced, and the file is usable for appends again.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	var torn *faults.TornFile
	// Let three single-frame syncs through, then tear the fourth frame's
	// write 7 bytes in.
	cut := int64(headerSize)
	for lsn := uint64(1); lsn <= 3; lsn++ {
		cut += int64(len(frame(t, lsn)))
	}
	cut += 7

	s, _, err := Open(dir, Options{WrapFile: func(f *os.File) File {
		torn = faults.NewTornFile(f, cut)
		return torn
	}})
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 3; lsn++ {
		if err := s.Append(frame(t, lsn)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(frame(t, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("torn sync error = %v, want ErrInjected", err)
	}
	if !torn.Torn() {
		t.Fatal("injector did not fire")
	}
	s.Close()

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery over torn tail failed: %v", err)
	}
	wantLSNs(t, rec.Tail, 1, 2, 3)
	// The 7 torn bytes are frame 4's length prefix and the first 3 bytes of
	// its little-endian LSN, "04 00 00": in a zero-filled segment the torn
	// tail ends at the last non-zero byte, so 5 of them count.
	if rec.TruncatedTail != 5 {
		t.Fatalf("TruncatedTail = %d, want 5", rec.TruncatedTail)
	}

	// And the truncated segment accepts appends again.
	s2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(frame(t, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, rec2.Tail, 1, 2, 3, 4)
}

// TestTornTailEveryCut sweeps the cut across every byte offset of the final
// sync's write and checks the durability invariant at each: recovery never
// loses an acked LSN, never surfaces an unacked one as acked state beyond
// what a torn tail allows, and always yields a cleanly decodable tail.
func TestTornTailEveryCut(t *testing.T) {
	base := int64(headerSize)
	var ackedFrames []int64
	for lsn := uint64(1); lsn <= 3; lsn++ {
		base += int64(len(frame(t, lsn)))
		ackedFrames = append(ackedFrames, base)
	}
	lastLen := int64(len(frame(t, 4)))

	for cutOff := int64(0); cutOff <= lastLen; cutOff++ {
		dir := t.TempDir()
		cut := base + cutOff
		s, _, err := Open(dir, Options{WrapFile: func(f *os.File) File {
			return faults.NewTornFile(f, cut)
		}})
		if err != nil {
			t.Fatal(err)
		}
		acked := uint64(0)
		for lsn := uint64(1); lsn <= 4; lsn++ {
			if err := s.Append(frame(t, lsn)); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				break
			}
			acked = lsn
		}
		s.Close()

		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cutOff, err)
		}
		if rec.LastLSN < acked {
			t.Fatalf("cut %d: recovered LastLSN %d < acked %d — lost a synced commit",
				cutOff, rec.LastLSN, acked)
		}
		got := lsnsOf(t, rec.Tail)
		for i, lsn := range got {
			if lsn != uint64(i+1) {
				t.Fatalf("cut %d: recovered LSNs %v not a prefix of 1..4", cutOff, got)
			}
		}
	}
}

// TestCorruptMiddleSegmentRefused: a flipped byte in a non-final segment is
// corruption no torn tail explains; recovery must fail loudly, not silently
// truncate synced records.
func TestCorruptMiddleSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 20; lsn++ {
		if err := s.Append(frame(t, lsn)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	s.Close()

	victim := segs[1]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+10] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{SegmentSize: 128}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over corrupt middle segment: err = %v, want ErrCorrupt", err)
	}
}

// TestCloseDiscardsPending: bytes staged but never synced were never acked;
// Close drops them and recovery does not see them.
func TestCloseDiscardsPending(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(frame(t, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close() // no Sync: frame 2 must vanish

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, rec.Tail, 1)
}

// TestCheckpointCrashArtifacts: leftover .tmp files are swept, and a garbage
// .ckpt file is rejected in favour of an older valid checkpoint.
func TestCheckpointCrashArtifacts(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 6; lsn++ {
		if err := s.Append(frame(t, lsn)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(snapshotFor(t, 1, 2), 4); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A checkpoint write that died before its rename…
	tmp := filepath.Join(dir, "checkpoint-00000000000000000099.ckpt.tmp")
	if err := os.WriteFile(tmp, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// …and a "newer" checkpoint that is pure garbage.
	junk := filepath.Join(dir, "checkpoint-00000000000000000098.ckpt")
	if err := os.WriteFile(junk, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointLSN != 4 {
		t.Fatalf("recovered CheckpointLSN = %d, want the valid checkpoint at 4", rec.CheckpointLSN)
	}
	wantLSNs(t, rec.Checkpoint, 1, 2)
	wantLSNs(t, rec.Tail, 5, 6)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale .tmp survived recovery")
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatal("garbage checkpoint survived recovery")
	}
}

// TestStoreAsWALDevice: the store under a real group-commit wal.Log — the
// durable file image equals the log's in-memory image after every ack, and a
// cold re-open returns exactly the log's records.
func TestStoreAsWALDevice(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	l := wal.NewWithOptions(wal.Options{GroupCommit: true, Device: s})
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int64) {
			for i := int64(0); i < 25; i++ {
				if _, err := l.Append(uint64(w+1), []wal.Op{{
					Kind: wal.OpInsert, Table: "t", PK: w*100 + i, Row: storage.Row{w*100 + i},
				}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := l.Bytes()
	s.Close()

	_, rec, err := Open(dir, Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Tail) != string(want) {
		t.Fatalf("recovered image (%d bytes) != log image (%d bytes)", len(rec.Tail), len(want))
	}
	if rec.LastLSN != l.DurableLSN() {
		t.Fatalf("recovered LastLSN %d != durable LSN %d", rec.LastLSN, l.DurableLSN())
	}
}

// segImage is one segment file as a crash may leave it: named after first,
// holding data.
type segImage struct {
	first uint64
	data  []byte
}

// preallocated builds a segment image the way the store lays it out: the
// header, then parts, then zeros up to size.
func preallocated(size int, parts ...[]byte) []byte {
	b := appendHeader(nil, segMagic)
	for _, p := range parts {
		b = append(b, p...)
	}
	return append(b, make([]byte, max(0, size-len(b)))...)
}

// TestPreallocatedCrashStates lists the states a crash can leave a
// preallocated segment in, and recovers from each. Every row writes a
// directory, opens it, and checks the recovered LSNs, the torn-byte count
// and the error; a row that opens then appends until the store rotates,
// re-opens, and expects its LSNs plus the appended ones, with nothing torn.
func TestPreallocatedCrashStates(t *testing.T) {
	f := func(lsn uint64) []byte { return frame(t, lsn) }
	flen := len(f(1))
	// Rotation threshold for the append phase: a segment holding two
	// frames is full, so a reopened segment with one frame takes exactly
	// one more before the store rotates.
	segSize := int64(headerSize + 2*flen)
	const pad = 512 // size of the crashed store's preallocated segments
	nonZeroAfterZeros := preallocated(pad, f(1))
	nonZeroAfterZeros[pad-1] = 0x01
	garbage := bytes.Repeat([]byte{0xab}, 4*flen)

	tests := []struct {
		name    string
		segs    []segImage
		want    []uint64
		torn    int64
		wantErr error
	}{
		{
			name: "frames then zeros, final segment",
			segs: []segImage{{1, preallocated(pad, f(1), f(2))}},
			want: []uint64{1, 2},
		},
		{
			name: "frames then zeros, non-final segment",
			segs: []segImage{
				{1, preallocated(pad, f(1), f(2))},
				{3, preallocated(pad, f(3))},
			},
			want: []uint64{1, 2, 3},
		},
		{
			// The torn 9 bytes are a length prefix and 5 bytes of LSN 3,
			// "03 00 00 00 00": the tail ends at the last non-zero byte.
			name: "torn frame then zeros",
			segs: []segImage{{1, preallocated(pad, f(1), f(2), f(3)[:9])}},
			want: []uint64{1, 2},
			torn: 5,
		},
		{
			// The next frame overwrites only the front of the garbage; the
			// rest must be zeroed by the reopen, or it fails recovery once
			// the segment is no longer the last.
			name: "torn garbage longer than the next frame",
			segs: []segImage{{1, preallocated(pad, f(1), garbage)}},
			want: []uint64{1},
			torn: int64(len(garbage)),
		},
		{
			name: "non-zero byte after the zeros, non-final segment",
			segs: []segImage{
				{1, nonZeroAfterZeros},
				{2, preallocated(pad, f(2))},
			},
			wantErr: ErrCorrupt,
		},
		{
			name: "newest segment all zero",
			segs: []segImage{
				{1, preallocated(pad, f(1), f(2))},
				{3, make([]byte, pad)},
			},
			want: []uint64{1, 2},
		},
		{
			name: "newest segment empty",
			segs: []segImage{
				{1, preallocated(pad, f(1), f(2))},
				{3, nil},
			},
			want: []uint64{1, 2},
		},
		{
			name: "unpadded segments written before preallocation",
			segs: []segImage{
				{1, preallocated(0, f(1), f(2))},
				{3, preallocated(0, f(3))},
			},
			want: []uint64{1, 2, 3},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, sg := range tc.segs {
				path := filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", sg.first))
				if err := os.WriteFile(path, sg.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s, rec, err := Open(dir, Options{SegmentSize: segSize})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Open err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			wantLSNs(t, rec.Tail, tc.want...)
			if rec.TruncatedTail != tc.torn {
				t.Fatalf("TruncatedTail = %d, want %d", rec.TruncatedTail, tc.torn)
			}

			// Append until the store rotates, then once more.
			want := append([]uint64(nil), tc.want...)
			segs := len(s.Segments())
			for rotated := false; !rotated; {
				lsn := want[len(want)-1] + 1
				if err := s.Append(f(lsn)); err != nil {
					t.Fatal(err)
				}
				if err := s.Sync(); err != nil {
					t.Fatalf("sync LSN %d: %v", lsn, err)
				}
				want = append(want, lsn)
				rotated = len(s.Segments()) > segs
			}
			newest := s.Segments()[len(s.Segments())-1]
			if fi, err := os.Stat(newest); err != nil || fi.Size() != segSize {
				t.Fatalf("new segment size %v (err %v), want it preallocated to %d", fi.Size(), err, segSize)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			_, rec2, err := Open(dir, Options{SegmentSize: segSize})
			if err != nil {
				t.Fatalf("re-open after append and rotation: %v", err)
			}
			wantLSNs(t, rec2.Tail, want...)
			if rec2.TruncatedTail != 0 {
				t.Fatalf("TruncatedTail = %d after a clean close", rec2.TruncatedTail)
			}
		})
	}
}
