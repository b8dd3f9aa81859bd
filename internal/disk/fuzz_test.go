package disk

import (
	"bytes"
	"testing"

	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

// fuzzFrame builds a valid frame for the seed corpus.
func fuzzFrame(lsn uint64) []byte {
	enc, err := wal.Encode(wal.Record{
		LSN:   lsn,
		TxnID: lsn,
		Ops:   []wal.Op{{Kind: wal.OpInsert, Table: "t", PK: int64(lsn), Row: storage.Row{int64(lsn)}}},
	})
	if err != nil {
		panic(err)
	}
	return enc
}

// FuzzSegmentScan hammers the recovery scanner with arbitrary byte strings —
// the exact situation after a torn write or on-disk corruption. The scanner
// must never panic, must report a valid-prefix length that is in bounds and
// self-consistent (re-scanning the prefix validates all of it), and must
// never surface a frame that starts at or beyond the first invalid byte.
func FuzzSegmentScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzFrame(1))
	f.Add(append(fuzzFrame(1), fuzzFrame(2)...))
	f.Add(append(fuzzFrame(7), fuzzFrame(8)[:9]...)) // valid frame + torn tail
	f.Add([]byte("\xff\xff\xff\xff garbage that is not a frame"))
	flip := fuzzFrame(3)
	flip[len(flip)/2] ^= 0x01 // payload bit flip: CRC must catch it
	f.Add(flip)
	huge := []byte{0xff, 0xff, 0xff, 0x7f} // absurd length prefix
	f.Add(append(huge, bytes.Repeat([]byte{0xaa}, 64)...))
	// A preallocated segment's zero remainder, after whole frames and after
	// a torn frame.
	zeros := make([]byte, 256)
	f.Add(append(append(fuzzFrame(1), fuzzFrame(2)...), zeros...))
	f.Add(append(append(fuzzFrame(4), fuzzFrame(5)[:11]...), zeros...))

	f.Fuzz(func(t *testing.T, data []byte) {
		type seen struct {
			lsn        uint64
			start, end int
		}
		var frames []seen
		off := 0
		valid, err := ScanFrames(data, func(lsn uint64, frame []byte) error {
			start := off
			off += len(frame)
			frames = append(frames, seen{lsn: lsn, start: start, end: off})
			if len(frame) == 0 {
				t.Fatal("scanner surfaced an empty frame")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ScanFrames returned an error with a non-erroring callback: %v", err)
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid = %d out of range [0, %d]", valid, len(data))
		}
		for _, fr := range frames {
			if fr.end > valid {
				t.Fatalf("frame [%d,%d) surfaced past the valid prefix %d", fr.start, fr.end, valid)
			}
		}
		// Frames must tile the valid prefix exactly.
		if off != valid {
			t.Fatalf("surfaced frames cover %d bytes, valid prefix is %d", off, valid)
		}
		// Re-scanning the valid prefix must validate all of it and surface
		// the same frames — recovery truncates to this prefix and trusts it.
		revalid, err := ScanFrames(data[:valid], nil)
		if err != nil || revalid != valid {
			t.Fatalf("re-scan of valid prefix: valid %d -> %d, err %v", valid, revalid, err)
		}
		// Recovery classes the remainder as a clean end exactly when it is
		// all zero, and counts torn bytes up to its last non-zero byte.
		torn := tornLen(data[valid:])
		for i, b := range data[valid+torn:] {
			if b != 0 {
				t.Fatalf("clean-end remainder holds byte %#x at %d", b, valid+torn+i)
			}
		}
		if torn > 0 && data[valid+torn-1] == 0 {
			t.Fatalf("torn tail of %d bytes ends in a zero byte", torn)
		}
		// Nothing decodable may start at the first invalid byte: recovery
		// truncates there, and a decodable frame would mean dropped data…
		// unless the scan stopped only because the NEXT bytes are torn.
		if valid < len(data) {
			if n, _, ok := checkFrame(data[valid:]); ok {
				t.Fatalf("frame of length %d decodes at the truncation point %d", n, valid)
			}
		}
	})
}
