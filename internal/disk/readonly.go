package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ReadRecovered recovers a data directory's durable state without mutating
// it: no torn-tail truncation, no checkpoint or temp-file deletion, and no
// write-opens. It is the forensic counterpart to Open, built for provenance
// queries over a directory that may belong to a live (or crashed) store.
//
// Where Open is strict — a bad frame in a non-final segment fails recovery —
// ReadRecovered is tolerant: scanning stops at the first anomaly (bad
// header, bad frame, or non-monotonic LSN) and everything before it is
// returned. A segment whose bytes after its frames are all zero ends
// cleanly, as in Open, and scanning goes on to the next one.
// Recovered.TruncatedTail counts the bytes ignored past the stop point
// across all remaining segments, each up to its last non-zero byte;
// callers must not attribute anything to them.
func ReadRecovered(dir string) (*Recovered, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		names = append(names, e.Name())
	}

	rec := &Recovered{}
	// Newest checkpoint that validates wins; invalid ones are skipped (Open
	// deletes them — a forensic read must not).
	for _, ck := range checkpointsDesc(names) {
		body, lsn, err := readCheckpoint(filepath.Join(dir, ck))
		if err != nil {
			continue
		}
		rec.Checkpoint = body
		rec.CheckpointLSN = lsn
		break
	}

	segs := segmentsAsc(dir, names)
	// Skip segments fully covered by the checkpoint, mirroring pruneCovered's
	// coverage rule without the deletes.
	if rec.CheckpointLSN > 0 {
		kept := segs[:0]
		for i, seg := range segs {
			if i < len(segs)-1 && segs[i+1].first-1 <= rec.CheckpointLSN {
				continue
			}
			kept = append(kept, seg)
		}
		segs = kept
	}

	prevLSN := uint64(0)
	stopped := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("disk: %w", err)
		}
		if stopped {
			rec.TruncatedTail += int64(tornLen(data))
			continue
		}
		if err := checkHeader(data, segMagic); err != nil {
			rec.TruncatedTail += int64(tornLen(data))
			stopped = true
			continue
		}
		body := data[headerSize:]
		valid, _ := ScanFrames(body, func(lsn uint64, frame []byte) error {
			if lsn <= prevLSN {
				return fmt.Errorf("%w: LSN %d after %d", ErrCorrupt, lsn, prevLSN)
			}
			prevLSN = lsn
			if lsn > rec.CheckpointLSN {
				rec.Tail = append(rec.Tail, frame...)
			}
			return nil
		})
		if torn := tornLen(body[valid:]); torn > 0 {
			rec.TruncatedTail += int64(torn)
			stopped = true
		}
	}
	rec.LastLSN = prevLSN
	if rec.CheckpointLSN > rec.LastLSN {
		rec.LastLSN = rec.CheckpointLSN
	}
	return rec, nil
}
