// Package disk is the real on-disk durability layer under the engine's WAL:
// a segmented file log plus checkpoints, with crash recovery that survives an
// actual process restart — the step past internal/wal's simulated device,
// whose "durable image" dies with the process.
//
// A Store implements wal.Device: the group-commit flusher stages each batch
// (Append) and then pays one real File.Sync (Sync). Staged bytes live only in
// memory until the sync — exactly a process's un-fsynced page-cache writes —
// so a crash between Append and Sync loses the batch whole, and a crash
// during the sync's write() leaves a torn tail that recovery truncates at
// the first bad frame. Because acknowledgement happens only after Sync
// returns, no acknowledged commit is ever behind the truncation point:
// acked ⊆ recovered holds at the file layer by construction.
//
// Segments are preallocated: a fresh segment is extended to
// Options.SegmentSize before its header is written, so a commit's write()
// overwrites zeros inside the file and its fsync never has to journal a new
// file size. The zero-filled remainder is part of the format: a segment
// whose bytes after its last valid frame are all zero ends cleanly, in any
// position, and only a non-zero byte past the valid prefix is a torn tail
// (final segment) or corruption (any other). Reopening the final segment
// cuts it back to its valid prefix and re-zeroes the remainder, so leftover
// torn bytes never sit behind new frames.
//
// Checkpoints bound recovery time and disk growth: the engine's committed
// projection is serialized (as ordinary WAL insert records), written to a
// temp file, fsynced, atomically renamed, and only then are fully-covered
// segments deleted. Recovery loads the newest valid checkpoint and replays
// the segments' frames past its LSN.
//
// The paper's §4.3 crash-handling bug class is the motivation: an engine
// whose durability story is "a flag in one process" cannot express any bug
// that needs a restart or a torn file. This package makes those observable —
// internal/chaos's restart mode re-opens the data directory after killing
// the whole serving stack and checks the oracles across the real boundary.
package disk

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// File is the write surface the store needs from a segment file. *os.File
// satisfies it; Options.WrapFile lets tests interpose a fault injector
// (faults.TornFile) between the store and the real file.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a Store.
type Options struct {
	// SegmentSize is the rotation threshold and the preallocated size of
	// every segment file: a fresh segment is created at this size, zero
	// filled, and frames overwrite the zeros. Once the frames reach it, the
	// next flush opens a fresh segment. Batches never split across
	// segments, so a segment exceeds the threshold by at most one batch.
	// 0 means 1 MiB.
	SegmentSize int64
	// WrapFile, when non-nil, wraps every newly opened or reopened segment
	// file. Test seam for torn-write/partial-fsync injection.
	WrapFile func(f *os.File) File
}

func (o Options) segmentSize() int64 {
	if o.SegmentSize > 0 {
		return o.SegmentSize
	}
	return 1 << 20
}

func (o Options) wrap(f *os.File) File {
	if o.WrapFile != nil {
		return o.WrapFile(f)
	}
	return f
}

// segment is one on-disk segment file. Its name carries the LSN of its first
// frame; its last LSN is implied by the next segment's name (or by scanning,
// for the active segment).
type segment struct {
	path  string
	first uint64
}

// Recovered is what Open found in the data directory.
type Recovered struct {
	// Checkpoint holds the newest valid checkpoint's snapshot: WAL-encoded
	// insert records of the committed projection. Nil when no checkpoint
	// exists.
	Checkpoint []byte
	// CheckpointLSN is the LSN the checkpoint covers: every record with
	// LSN <= CheckpointLSN is reflected in Checkpoint.
	CheckpointLSN uint64
	// Tail holds the recovered WAL frames with LSN > CheckpointLSN, in
	// order. Replay Checkpoint, then Tail, to rebuild the committed state.
	Tail []byte
	// LastLSN is the highest recovered LSN (checkpoint or tail).
	LastLSN uint64
	// TruncatedTail is how many torn bytes recovery cut from the final
	// segment: the bytes after the valid prefix up to the last non-zero
	// one (0 on a clean shutdown, whose remainder is all zero).
	TruncatedTail int64
}

// Empty reports whether the directory held no durable state at all.
func (r *Recovered) Empty() bool {
	return r.LastLSN == 0 && r.Checkpoint == nil
}

// Store is a segmented on-disk WAL with checkpoints. It implements
// wal.Device. Safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu      sync.Mutex
	segs    []segment // sorted by first LSN; last entry is the active segment
	cur     File      // active segment handle, nil until the first flush
	curSize int64     // bytes written to the active segment (header + frames)

	// pending is staged by Append and made durable by the next Sync —
	// the page-cache analogue: a crash here loses it whole.
	pending      []byte
	pendingFirst uint64
	pendingLast  uint64

	syncedLSN uint64
	ckptLSN   uint64
	closed    bool

	// ckptMu serializes checkpoints. A checkpoint writes and fsyncs its temp
	// file under ckptMu alone, so WAL appends and syncs (s.mu) never wait on
	// that I/O; it takes s.mu only to publish the file.
	ckptMu sync.Mutex
	// ckptWritten, when set, runs after a checkpoint's temp file is written,
	// before it is fsynced. Test seam: it holds a checkpoint mid-write.
	ckptWritten func()
}

// Open opens (or creates) a data directory and recovers its state: newest
// valid checkpoint, then every segment frame past it, truncating a torn tail
// on the final segment. A zero remainder after a segment's frames is its
// clean end; a non-zero byte after the valid prefix of any earlier segment —
// which no torn tail can explain — fails recovery with ErrCorrupt rather
// than silently dropping synced records. A newest segment that is empty or
// all zero lost its header to the crash, so it holds no acknowledged frame:
// Open removes it.
func Open(dir string, opt Options) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("disk: %w", err)
	}
	s := &Store{dir: dir, opt: opt}
	rec := &Recovered{}

	names, err := cleanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	// Newest checkpoint that validates wins; invalid ones (a torn rename
	// cannot produce them, but recovery trusts no file on faith) are
	// deleted so they are not rescanned forever.
	for _, ck := range checkpointsDesc(names) {
		body, lsn, err := readCheckpoint(filepath.Join(dir, ck))
		if err != nil {
			_ = os.Remove(filepath.Join(dir, ck))
			continue
		}
		rec.Checkpoint = body
		rec.CheckpointLSN = lsn
		s.ckptLSN = lsn
		break
	}

	segs, err := s.dropBlankNewest(segmentsAsc(dir, names))
	if err != nil {
		return nil, nil, err
	}
	// Resume an interrupted prune: a segment whose successor starts at or
	// below the checkpoint LSN is fully covered by the checkpoint.
	segs, err = s.pruneCovered(segs, rec.CheckpointLSN)
	if err != nil {
		return nil, nil, err
	}

	prevLSN := uint64(0)
	finalValid := int64(0) // end of the final segment's valid prefix
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, nil, fmt.Errorf("disk: %w", err)
		}
		if err := checkHeader(data, segMagic); err != nil {
			return nil, nil, fmt.Errorf("%v (segment %s)", err, filepath.Base(seg.path))
		}
		body := data[headerSize:]
		valid, err := ScanFrames(body, func(lsn uint64, frame []byte) error {
			if lsn <= prevLSN {
				return fmt.Errorf("%w: LSN %d after %d in %s", ErrCorrupt, lsn, prevLSN, filepath.Base(seg.path))
			}
			prevLSN = lsn
			if lsn > rec.CheckpointLSN {
				rec.Tail = append(rec.Tail, frame...)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if torn := tornLen(body[valid:]); torn > 0 {
			if i != len(segs)-1 {
				return nil, nil, fmt.Errorf("%w: bad frame at %d in non-final segment %s",
					ErrCorrupt, headerSize+valid, filepath.Base(seg.path))
			}
			// Torn tail: the crash cut the last write() short of its fsync,
			// so nothing past the cut was ever acknowledged. The reopen
			// below truncates at the first bad frame — never past a synced
			// LSN, because syncs only cover whole frames.
			rec.TruncatedTail = int64(torn)
		}
		finalValid = int64(headerSize + valid)
		s.segs = append(s.segs, segment{path: seg.path, first: seg.first})
	}
	rec.LastLSN = prevLSN
	if rec.CheckpointLSN > rec.LastLSN {
		rec.LastLSN = rec.CheckpointLSN
	}
	s.syncedLSN = rec.LastLSN

	if n := len(s.segs); n > 0 {
		if err := s.reopenFinal(s.segs[n-1].path, finalValid); err != nil {
			return nil, nil, err
		}
	}
	return s, rec, nil
}

// reopenFinal reopens the final segment for appending at the end of its
// valid prefix. The file is cut back to that point and extended again, so
// every byte past it is zero — torn bytes longer than the next frame would
// otherwise stay behind it and fail recovery once the segment is no longer
// the last — and fsynced before the first append.
func (s *Store) reopenFinal(path string, valid int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	err = f.Truncate(valid)
	if err == nil {
		err = f.Truncate(max(valid, s.opt.segmentSize()))
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("disk: reopening segment: %w", err)
	}
	s.cur = s.opt.wrap(f)
	s.curSize = valid
	return nil
}

// cleanDir lists dir, removing leftover temp files from an interrupted
// checkpoint.
func cleanDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

func checkpointsDesc(names []string) []string {
	var cks []string
	for _, n := range names {
		if strings.HasPrefix(n, "checkpoint-") && strings.HasSuffix(n, ".ckpt") {
			cks = append(cks, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(cks))) // zero-padded LSN: lexical = numeric
	return cks
}

func segmentsAsc(dir string, names []string) []segment {
	var segs []segment
	for _, n := range names {
		if !strings.HasPrefix(n, "wal-") || !strings.HasSuffix(n, ".seg") {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, "wal-"), ".seg"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, n), first: lsn})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs
}

// dropBlankNewest removes the newest segment when it is empty or all zero:
// the crash came before its header reached the disk, and the header is
// written before any frame and synced by that frame's fsync, so the file
// holds no acknowledged frame. Its removal also frees the name for the
// segment the next flush creates.
func (s *Store) dropBlankNewest(segs []segment) ([]segment, error) {
	if len(segs) == 0 {
		return segs, nil
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last.path)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	if tornLen(data) > 0 {
		return segs, nil
	}
	if err := os.Remove(last.path); err != nil {
		return nil, fmt.Errorf("disk: removing blank segment: %w", err)
	}
	return segs[:len(segs)-1], s.syncDir()
}

// pruneCovered deletes every segment fully covered by the checkpoint at
// ckptLSN: a segment whose successor's first LSN is at or below ckptLSN+1
// holds only frames <= ckptLSN. The final segment is never deleted — it is
// the append point.
func (s *Store) pruneCovered(segs []segment, ckptLSN uint64) ([]segment, error) {
	if ckptLSN == 0 {
		return segs, nil
	}
	kept := segs[:0]
	for i, seg := range segs {
		if i < len(segs)-1 && segs[i+1].first-1 <= ckptLSN {
			if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("disk: pruning %s: %w", seg.path, err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	return kept, nil
}

// ---- wal.Device ----

// Append stages p — whole encoded WAL records — for the next Sync. Staged
// bytes are volatile: a crash before the sync loses them, which is exactly
// the durability contract the WAL's crash points assume.
func (s *Store) Append(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("disk: store closed")
	}
	if len(s.pending) == 0 {
		s.pendingFirst = firstLSN(p)
	}
	if last := lastLSNIn(p); last > 0 {
		s.pendingLast = last
	}
	s.pending = append(s.pending, p...)
	return nil
}

// Sync makes every staged byte durable: write() into the active segment
// (rotating first if it is full), then File.Sync. A sync with nothing staged
// is a no-op — a concurrent flusher already covered those bytes.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("disk: store closed")
	}
	if len(s.pending) == 0 {
		return nil
	}
	if s.cur == nil || s.curSize >= s.opt.segmentSize() {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := s.cur.Write(s.pending)
	s.curSize += int64(n)
	if err != nil {
		return fmt.Errorf("disk: segment write: %w", err)
	}
	if err := s.cur.Sync(); err != nil {
		return fmt.Errorf("disk: segment sync: %w", err)
	}
	s.syncedLSN = s.pendingLast
	s.pending = s.pending[:0]
	s.pendingFirst, s.pendingLast = 0, 0
	return nil
}

// rotateLocked closes the active segment (already synced at rest) and opens
// a fresh one named after the first staged LSN, preallocated to the segment
// size before its header is written. Caller holds s.mu.
func (s *Store) rotateLocked() error {
	if s.cur != nil {
		if err := s.cur.Close(); err != nil {
			return fmt.Errorf("disk: closing segment: %w", err)
		}
		s.cur = nil
	}
	first := s.pendingFirst
	if first == 0 {
		first = s.syncedLSN + 1
	}
	path := filepath.Join(s.dir, fmt.Sprintf("wal-%020d.seg", first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("disk: creating segment: %w", err)
	}
	if err := f.Truncate(s.opt.segmentSize()); err != nil {
		_ = f.Close()
		return fmt.Errorf("disk: preallocating segment: %w", err)
	}
	s.cur = s.opt.wrap(f)
	n, err := s.cur.Write(appendHeader(nil, segMagic))
	s.curSize = int64(n)
	if err != nil {
		return fmt.Errorf("disk: segment header: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.segs = append(s.segs, segment{path: path, first: first})
	return nil
}

// syncDir fsyncs the data directory so created/renamed/removed entries are
// durable. Process-death alone never loses a dirent; this covers the
// whole-node story the chaos harness aspires to.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("disk: dir sync: %w", err)
	}
	return nil
}

// ---- checkpoints ----

// Checkpoint durably records a snapshot of the committed projection covering
// every LSN <= lsn: temp file, fsync, atomic rename, dir fsync — then, and
// only then, older checkpoints and fully-covered segments are deleted.
// snapshot must be WAL-encoded records (engine.Snapshot produces them).
// A checkpoint at or below the current checkpoint LSN is a no-op.
//
// Checkpoints run one at a time, and the temp file is written and fsynced
// without the store lock: WAL Append and Sync proceed meanwhile. Only the
// rename and what follows it hold the lock.
func (s *Store) Checkpoint(snapshot []byte, lsn uint64) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	closed, covered := s.closed, lsn <= s.ckptLSN
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("disk: store closed")
	}
	if covered {
		return nil
	}
	final := filepath.Join(s.dir, fmt.Sprintf("checkpoint-%020d.ckpt", lsn))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("disk: checkpoint: %w", err)
	}
	werr := func() error {
		if _, err := f.Write(appendCkptPreamble(nil, lsn)); err != nil {
			return err
		}
		if _, err := f.Write(snapshot); err != nil {
			return err
		}
		if s.ckptWritten != nil {
			s.ckptWritten()
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("disk: checkpoint: %w", werr)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		_ = os.Remove(tmp)
		return fmt.Errorf("disk: store closed")
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("disk: checkpoint rename: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}

	// The checkpoint is durable; everything it covers is now garbage.
	prevCkpt := s.ckptLSN
	s.ckptLSN = lsn
	if prevCkpt > 0 {
		_ = os.Remove(filepath.Join(s.dir, fmt.Sprintf("checkpoint-%020d.ckpt", prevCkpt)))
	}
	kept, err := s.pruneCovered(s.segs, lsn)
	if err != nil {
		return err
	}
	s.segs = kept
	return s.syncDir()
}

// readCheckpoint loads and validates one checkpoint file, returning its
// snapshot body and covered LSN.
func readCheckpoint(path string) ([]byte, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("disk: %w", err)
	}
	lsn, err := checkCkptPreamble(data)
	if err != nil {
		return nil, 0, err
	}
	body := data[ckptPreamble:]
	valid, _ := ScanFrames(body, nil)
	if valid != len(body) {
		return nil, 0, fmt.Errorf("%w: checkpoint frame at %d invalid", ErrCorrupt, ckptPreamble+valid)
	}
	return body, lsn, nil
}

// ---- introspection / lifecycle ----

// SyncedLSN returns the highest LSN durable on disk.
func (s *Store) SyncedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncedLSN
}

// CheckpointLSN returns the LSN covered by the newest durable checkpoint.
func (s *Store) CheckpointLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptLSN
}

// Segments returns the live segment file paths, oldest first.
func (s *Store) Segments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.segs))
	for i, seg := range s.segs {
		out[i] = seg.path
	}
	return out
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Close closes the store. Staged-but-unsynced bytes are DISCARDED, not
// flushed: nothing staged was ever acknowledged (acks follow Sync), so
// dropping them is always correct, and flushing here would turn Close into
// a hidden commit point the crash model does not have.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.pending = nil
	if s.cur != nil {
		err := s.cur.Close()
		s.cur = nil
		if err != nil {
			return fmt.Errorf("disk: %w", err)
		}
	}
	return nil
}

// lastLSNIn walks the length prefixes of whole frames in p (no CRC checks —
// p was just encoded by the WAL) and returns the last frame's LSN, or 0.
func lastLSNIn(p []byte) uint64 {
	off, last := 0, uint64(0)
	for off+8 <= len(p) {
		plen := binary.LittleEndian.Uint32(p[off:])
		total := 4 + int(plen) + 4
		if plen < 8 || off+total > len(p) {
			break
		}
		last = binary.LittleEndian.Uint64(p[off+4:])
		off += total
	}
	return last
}
