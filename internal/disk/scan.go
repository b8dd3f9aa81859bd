package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Segment files hold a header followed by a run of frames in internal/wal's
// record encoding:
//
//	frame   := plen(u32 LE) | payload | crc32(u32 LE, IEEE, over payload)
//	payload := lsn(u64 LE) | ...opaque to this layer...
//
// The scanner below is the recovery primitive: it walks frames front to
// back, stops at the first frame that does not check out, and NEVER returns
// bytes past that point. A frame fails the scan when its length prefix does
// not fit in the remaining bytes (a torn tail), its CRC mismatches (a torn
// or corrupted write), its payload is too short to hold an LSN, or its
// declared length is absurd (a length prefix read out of garbage). The
// distinction between "clean end", "torn tail", and "corruption" is the
// caller's to make — a zero remainder after the cut is a clean end (segments
// are preallocated with zeros); otherwise recovery truncates a last segment
// at the cut and refuses a cut in any earlier segment.

// ErrCorrupt reports an invalid frame or header in the middle of the
// on-disk log, where a torn tail cannot explain it.
var ErrCorrupt = errors.New("disk: corrupt")

// maxFramePayload bounds a frame's declared payload length. A real record is
// a transaction's redo ops — far below this; a longer declaration is garbage
// read as a length prefix, and treating it as a frame would make the scanner
// skip arbitrarily far past a corruption point.
const maxFramePayload = 64 << 20

// ScanFrames walks the frames in p, invoking fn for each valid frame with
// its LSN and its full encoded bytes (aliasing p). It returns the number of
// bytes of p covered by valid frames: p[:valid] is the longest decodable
// prefix, and no frame starting at or after the first invalid byte is ever
// surfaced. A non-nil error from fn stops the scan and is returned with the
// bytes covered so far.
func ScanFrames(p []byte, fn func(lsn uint64, frame []byte) error) (valid int, err error) {
	off := 0
	for off < len(p) {
		n, lsn, ok := checkFrame(p[off:])
		if !ok {
			return off, nil
		}
		if fn != nil {
			if err := fn(lsn, p[off:off+n]); err != nil {
				return off, err
			}
		}
		off += n
	}
	return off, nil
}

// checkFrame validates the frame at the front of p, returning its total
// length and LSN. ok is false when the frame is truncated, oversized, CRC
// mismatched, or too short to carry an LSN.
func checkFrame(p []byte) (n int, lsn uint64, ok bool) {
	if len(p) < 4 {
		return 0, 0, false
	}
	plen := binary.LittleEndian.Uint32(p)
	if plen < 8 || plen > maxFramePayload {
		return 0, 0, false
	}
	total := 4 + int(plen) + 4
	if total > len(p) {
		return 0, 0, false
	}
	payload := p[4 : 4+plen]
	want := binary.LittleEndian.Uint32(p[4+plen:])
	if crc32.ChecksumIEEE(payload) != want {
		return 0, 0, false
	}
	return total, binary.LittleEndian.Uint64(payload), true
}

// tornLen returns how many bytes of rest — the bytes after a segment's
// valid prefix — are torn: up to and including the last non-zero byte. 0
// means rest is all zero, the clean end of a preallocated segment.
func tornLen(rest []byte) int {
	return len(bytes.TrimRight(rest, "\x00"))
}

// firstLSN returns the LSN of the first frame in p, or 0 when p does not
// start with a valid frame. The store uses it to name a fresh segment after
// the first record it will hold.
func firstLSN(p []byte) uint64 {
	_, lsn, ok := checkFrame(p)
	if !ok {
		return 0
	}
	return lsn
}

// ---- file headers ----
//
// Segment and checkpoint files both start with a 16-byte header:
//
//	magic(8) | version(u32 LE) | flags(u32 LE)
//
// Checkpoint files follow the header with:
//
//	lastLSN(u64 LE) | crc32(u32 LE over magic..lastLSN)
//
// and then the snapshot's frames. The checkpoint trailer CRC covers the
// header+LSN so a checkpoint whose preamble was torn mid-write is detected
// even before its frames are scanned (the atomic-rename protocol should make
// that impossible; recovery still refuses to trust a file on faith).

const (
	segMagic      = "ADHOCSEG"
	ckptMagic     = "ADHOCCKP"
	formatVersion = 1

	headerSize   = 16
	ckptPreamble = headerSize + 8 + 4
)

func appendHeader(b []byte, magic string) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return b
}

// checkHeader validates a file's 16-byte header.
func checkHeader(p []byte, magic string) error {
	if len(p) < headerSize {
		return fmt.Errorf("%w: file shorter than its header (%d bytes)", ErrCorrupt, len(p))
	}
	if string(p[:8]) != magic {
		return fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, p[:8], magic)
	}
	if v := binary.LittleEndian.Uint32(p[8:]); v != formatVersion {
		return fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, v, formatVersion)
	}
	return nil
}

// appendCkptPreamble writes the checkpoint preamble for lastLSN.
func appendCkptPreamble(b []byte, lastLSN uint64) []byte {
	b = appendHeader(b, ckptMagic)
	b = binary.LittleEndian.AppendUint64(b, lastLSN)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(b)-headerSize-8:]))
	return b
}

// checkCkptPreamble validates a checkpoint preamble and returns its LSN.
func checkCkptPreamble(p []byte) (uint64, error) {
	if err := checkHeader(p, ckptMagic); err != nil {
		return 0, err
	}
	if len(p) < ckptPreamble {
		return 0, fmt.Errorf("%w: checkpoint shorter than its preamble", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(p[headerSize+8:])
	if crc32.ChecksumIEEE(p[:headerSize+8]) != want {
		return 0, fmt.Errorf("%w: checkpoint preamble CRC mismatch", ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(p[headerSize:]), nil
}
