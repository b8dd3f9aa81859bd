// Package wal implements the redo write-ahead log backing the engine's
// durability story. Committed transactions append one record holding their
// redo operations and pay a (simulated) fsync; recovery replays records in
// LSN order, stopping at the first torn or corrupt record.
//
// The simulated disk is honest about the one property that matters for
// commit throughput: flushes serialize. One fsync is in flight at a time,
// exactly like a single WAL device, so per-commit flushing collapses under
// concurrent writers. Group commit (Options.GroupCommit) is the classic
// fix: concurrent Append callers coalesce into a batch whose flusher pays a
// single fsync for everyone, with tunable max-batch-size and max-wait
// windows. The flusher is one of the batch's own committers, and it flushes
// that one batch only: the flush role passes to the next batch's oldest
// member, so no commit waits on a later batch's fsync. LSNs are assigned at
// enqueue time, so per-transaction ordering and the recovery-replay
// semantics are unchanged.
//
// The log matters to the study twice: Figure 2's DB-table lock is slow
// precisely because each acquire/release commits a durable transaction, and
// §4.3's crash-handling bugs require an engine that actually survives a
// crash so the application-level intermediate states can be observed.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adhoctx/internal/obs"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
)

// OpKind enumerates redo operation kinds.
type OpKind uint8

// Redo operation kinds.
const (
	OpInsert OpKind = iota + 1
	OpUpdate
	OpDelete
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one redo operation. Row is the after-image for inserts and updates
// and nil for deletes.
type Op struct {
	Kind  OpKind
	Table string
	PK    int64
	Row   storage.Row
}

// Record is one committed transaction's redo log entry.
type Record struct {
	LSN   uint64
	TxnID uint64
	Ops   []Op
}

// ErrCorrupt reports a checksum mismatch in the middle of the log (as
// opposed to a clean truncation at the tail, which recovery tolerates).
var ErrCorrupt = errors.New("wal: corrupt record")

// Crash points checked by the group-commit flusher when Options.Crash is
// armed (see sim.CrashPlan). The flusher catches the crash panic, poisons the
// log, and hands every batch member the *sim.CrashError as its Append
// result — process-death semantics where the engine layer decides how the
// death propagates.
const (
	// CrashPointBeforeFsync fires after a batch is formed but before any of
	// it reaches the durable image: recovery must replay none of the batch.
	CrashPointBeforeFsync = "wal/groupcommit:before-fsync"
	// CrashPointAfterFsync fires after the batch's single fsync completed
	// but before any caller is acknowledged: recovery must replay the whole
	// batch (the commits are durable but unacknowledged).
	CrashPointAfterFsync = "wal/groupcommit:after-fsync"
)

// Replication crash points, checked only when a shipper is installed
// (SetShipper). They bracket the ship call and pin the semi-sync contract:
// a crash at CrashPointShipBefore leaves the batch locally durable but
// unshipped and unacknowledged — no client may have seen an ack, so losing
// the node (and the batch with it) cannot violate acknowledged ⊆ replicated.
const (
	// CrashPointShipBefore fires after the batch's fsync but before it is
	// handed to the shipper: durable locally, on no follower, no acks.
	CrashPointShipBefore = "repl/ship:before"
	// CrashPointShipAfter fires after the shipper returned (the ack quorum
	// is satisfied) but before any caller is acknowledged.
	CrashPointShipAfter = "repl/ship:after"
)

// Device is the durable medium under the log. The log serializes all device
// access (one flush in flight at a time, like a single WAL disk): Append
// stages encoded records at the device's tail, Sync makes every staged byte
// durable. Acknowledgement of a batch happens only after Sync returns, so a
// device that loses staged-but-unsynced bytes on a crash — which is what a
// real file does when the process dies before fsync — can never lose an
// acknowledged commit.
//
// The default device is simulated: Append is a no-op (the log's in-memory
// image is the durable state) and Sync charges Options.Latency.Fsync.
// internal/disk provides the real one: a segmented on-disk WAL with
// File.Sync per flush.
type Device interface {
	// Append stages p — whole encoded records — at the log's tail.
	Append(p []byte) error
	// Sync makes every staged byte durable.
	Sync() error
}

// simDevice is the default Device: the in-memory log image is the durable
// state and each Sync charges the simulated flush latency.
type simDevice struct{ lat sim.Latency }

func (d simDevice) Append([]byte) error { return nil }
func (d simDevice) Sync() error {
	d.lat.ChargeFsync()
	return nil
}

// Options configures a Log.
type Options struct {
	// Latency is the simulated device profile; Latency.Fsync is charged per
	// flush, serialized (one flush in flight at a time). Ignored when a real
	// Device is installed (the device's own fsync is the cost).
	Latency sim.Latency
	// Device is the durable medium (nil = the simulated device above). All
	// flush paths — per-commit, group-commit batches, replicated chunks —
	// stage through it and sync once per batch.
	Device Device
	// GroupCommit coalesces concurrent Appends into one flush per batch.
	GroupCommit bool
	// MaxBatch bounds records per group-commit batch (0 = 64).
	MaxBatch int
	// MaxWait is how long the committer holding the flush role waits for
	// followers before flushing a non-full batch. 0 flushes immediately;
	// batching then comes from backpressure alone (followers queue while
	// the holder flushes), which keeps uncontended commit latency at
	// exactly one fsync.
	MaxWait time.Duration
	// Crash, when non-nil, arms the wal/groupcommit crash points.
	Crash *sim.CrashPlan
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return 64
}

// pendingAppend is one parked Append caller: its LSN, its encoded bytes
// (group commit only), the channel its outcome arrives on, and (group commit
// only) the channel the flush role is handed to it on. The two are separate
// so neither send can block: each carries at most one value per member.
type pendingAppend struct {
	lsn  uint64
	enc  []byte
	done chan error
	role chan struct{}
}

// shipBatch is one fsync batch in the ship queue: its byte range in Log.buf,
// its LSN range, and the Append callers parked until a shipper call covering
// it returns.
type shipBatch struct {
	off, end    int
	first, last uint64
	members     []*pendingAppend
}

// walMetrics is the log's instrument set. The two counters exist from
// NewWithOptions — they are what AppendCount and FsyncCount read — and move
// onto a registry's series at WireObs; the rest stay nil (no-op instruments)
// until then.
type walMetrics struct {
	appends     *obs.Counter
	fsyncs      *obs.Counter
	batches     *obs.Counter
	batchSize   *obs.Histogram
	shipRecords *obs.Histogram
	shipQueue   *obs.Gauge
}

// Log is an append-only redo log: an in-memory image (what replication and
// in-process recovery read) mirrored onto a pluggable durable Device. It is
// safe for concurrent use.
type Log struct {
	opt Options
	dev Device

	mu       sync.Mutex
	buf      []byte
	nextLSN  uint64
	pending  []*pendingAppend
	flushing bool  // the flush role is held, or in transit to its next holder
	crashErr error // poisons the log after a fired crash point

	// The ship stage (only ever non-empty while a shipper is installed):
	// shipQ holds fsync batches in LSN order waiting for a shipper call,
	// inflight the ones the running call covers, and shipping is the stage's
	// role flag — one runShipper goroutine exists while it is set.
	shipQ    []shipBatch
	inflight []shipBatch
	shipping bool

	// full is signalled when pending reaches MaxBatch so a role holder
	// waiting out its window can cut it short.
	full chan struct{}

	// flushMu serializes the simulated device: one fsync in flight at a
	// time, like a single WAL disk.
	flushMu sync.Mutex

	// durable is the highest LSN whose record has survived an fsync — the
	// replication shipping frontier and the follower-staleness clock.
	durable atomic.Uint64

	// shipper, when installed, receives every durable byte range from the
	// ship stage (see SetShipper).
	shipper atomic.Pointer[func(raw []byte, first, last uint64)]

	om atomic.Pointer[walMetrics]

	// parked, when set, runs in a group-commit Append that found a flush in
	// progress, before it waits for the flush role or its outcome. Test
	// seam: holding the caller there holds a role handed to it in transit.
	parked func(lsn uint64)
}

// New returns an empty log charging the given latency profile per fsync,
// one flush per Append (no group commit).
func New(lat sim.Latency) *Log {
	return NewWithOptions(Options{Latency: lat})
}

// NewWithOptions returns an empty log with the given configuration.
func NewWithOptions(opt Options) *Log {
	dev := opt.Device
	if dev == nil {
		dev = simDevice{lat: opt.Latency}
	}
	l := &Log{opt: opt, dev: dev, nextLSN: 1, full: make(chan struct{}, 1)}
	l.om.Store(&walMetrics{appends: new(obs.Counter), fsyncs: new(obs.Counter)})
	return l
}

// Load primes a fresh log with state recovered from a durable device: raw is
// the recovered record image (the tail since the newest checkpoint) and
// lastLSN the highest recovered LSN. The bytes are NOT re-staged on the
// device — they are already durable there; only the in-memory image, the LSN
// counter, and the durable frontier are set. Call before the first Append.
func (l *Log) Load(raw []byte, lastLSN uint64) {
	l.mu.Lock()
	l.buf = append(l.buf[:0], raw...)
	if lastLSN >= l.nextLSN {
		l.nextLSN = lastLSN + 1
	}
	l.mu.Unlock()
	l.advanceDurable(lastLSN)
}

// WireObs attaches the log to reg: append/fsync counts, group-commit batch
// count, the wal_group_commit_batch_size histogram, and the ship stage's
// wal_ship_batch_records histogram (records per shipper call — above the
// group-commit batch size when fsync batches coalesce behind a slow ship) and
// wal_ship_queue_batches gauge (fsync batches queued or on the wire; stuck
// above zero is a stalled follower). The two counts carry over what they
// held, so AppendCount and FsyncCount never step back; logs wired to one
// registry share its series. Wire before starting load: an event counted
// during the move can land on the retired counter. A nil registry is a no-op.
func (l *Log) WireObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	old, om := l.om.Load(), &walMetrics{
		appends:   reg.Counter("wal_appends_total"),
		fsyncs:    reg.Counter("wal_fsyncs_total"),
		batches:   reg.Counter("wal_group_commits_total"),
		batchSize: reg.Histogram("wal_group_commit_batch_size"),

		shipRecords: reg.Histogram("wal_ship_batch_records"),
		shipQueue:   reg.Gauge("wal_ship_queue_batches"),
	}
	l.om.Store(om)
	if om.appends != old.appends {
		om.appends.Add(old.appends.Value())
		om.fsyncs.Add(old.fsyncs.Value())
	}
}

// SetShipper installs fn as the log's replication hook: fn receives raw log
// bytes that are already locally durable plus the LSN range they cover, and
// no Append covered by a call is acknowledged before that call returns — a
// shipper that waits for follower acks is exactly how semi-sync commit is
// built. The log enforces the rest of the contract: calls are serial (never
// two at once), in LSN order and gapless (each call's first is the previous
// call's last+1 from the first batch fsynced after installation), for both
// GroupCommit settings. fn runs on the ship stage's goroutine, not on the
// flusher: while one call is on the wire the flusher fsyncs the next batch,
// and every batch fsynced meanwhile rides the next call as one contiguous
// range. raw aliases the append-only log image: it stays valid and immutable
// after fn returns. A nil fn uninstalls the hook; batches already queued are
// then acknowledged without a call. A fired crash point ends the sequence:
// see Recover for where it resumes.
//
// The repl/ship crash points fire around fn only while a shipper is
// installed.
func (l *Log) SetShipper(fn func(raw []byte, first, last uint64)) {
	if fn == nil {
		l.shipper.Store(nil)
		return
	}
	l.shipper.Store(&fn)
}

// ship runs the installed shipper (if any) bracketed by the repl/ship crash
// points. Called by the ship stage after the records in raw are locally
// durable.
func (l *Log) ship(raw []byte, first, last uint64) {
	fn := l.shipper.Load()
	if fn == nil {
		return
	}
	l.opt.Crash.Check(CrashPointShipBefore)
	(*fn)(raw, first, last)
	l.om.Load().shipRecords.ObserveValue(int64(last - first + 1))
	l.opt.Crash.Check(CrashPointShipAfter)
}

// DurableLSN returns the highest LSN that has survived an fsync. On a
// follower this advances as replicated batches are applied (AppendRaw), so it
// doubles as the applied-LSN the bounded-staleness guard compares against.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// advanceDurable ratchets the durable frontier up to lsn.
func (l *Log) advanceDurable(lsn uint64) {
	for {
		cur := l.durable.Load()
		if lsn <= cur || l.durable.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// FsyncCount returns the number of flushes charged so far. With group
// commit, concurrent Appends share flushes, so FsyncCount < AppendCount
// under load — the whole point.
func (l *Log) FsyncCount() int64 { return l.om.Load().fsyncs.Value() }

// AppendCount returns the number of records appended so far.
func (l *Log) AppendCount() int64 { return l.om.Load().appends.Value() }

// syncDevice pays one serialized device flush. Staging (dev.Append) happens
// under l.mu in the same critical section as the in-memory append, so the
// device's byte order always matches the log's LSN order; only the flush
// itself serializes here. A sync that finds nothing newly staged (a
// concurrent caller's flush already covered these bytes) is still a correct
// acknowledgement point: Sync returns only when everything staged so far is
// durable. A device error is fatal for the log; callers poison it.
func (l *Log) syncDevice() error {
	l.flushMu.Lock()
	err := l.dev.Sync()
	l.flushMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: device sync: %w", err)
	}
	l.om.Load().fsyncs.Inc()
	return nil
}

// poison marks the log failed with err — every later Append returns it — and
// fails every Append still parked in either stage.
func (l *Log) poison(err error) {
	l.mu.Lock()
	orphans := l.poisonLocked(err)
	l.mu.Unlock()
	finish(orphans, err)
}

// poisonLocked marks the log failed and detaches every unacknowledged member
// of both queues — the unflushed appends and the fsynced batches queued or on
// the wire — for the caller to fail once l.mu is released: the process died,
// nothing unacknowledged will ever be acknowledged. Caller holds l.mu.
func (l *Log) poisonLocked(err error) (orphans []*pendingAppend) {
	if l.crashErr == nil {
		l.crashErr = err
	}
	orphans, l.pending = l.pending, nil
	for _, q := range [][]shipBatch{l.inflight, l.shipQ} {
		for _, b := range q {
			orphans = append(orphans, b.members...)
		}
	}
	l.inflight, l.shipQ = nil, nil
	l.noteShipQueueLocked()
	return orphans
}

// finish hands each parked Append its outcome (nil acknowledges it).
func finish(members []*pendingAppend, err error) {
	for _, p := range members {
		p.done <- err
	}
}

// Append durably appends one commit record and returns its LSN. With group
// commit enabled, the call blocks until the record's batch is flushed, and
// with a shipper installed (either mode) until a shipper call covering the
// record has returned; the returned error is that outcome (a *sim.CrashError
// if a crash point killed either stage before this record was acknowledged).
func (l *Log) Append(txnID uint64, ops []Op) (uint64, error) {
	l.om.Load().appends.Inc()
	if l.opt.GroupCommit {
		return l.appendGroup(txnID, ops)
	}
	l.mu.Lock()
	if err := l.crashErr; err != nil {
		l.mu.Unlock()
		return 0, err
	}
	lsn := l.nextLSN
	enc, err := encodeRecord(Record{LSN: lsn, TxnID: txnID, Ops: ops})
	if err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.nextLSN++
	off := len(l.buf)
	l.buf = append(l.buf, enc...)
	// Stage on the device inside the same critical section as the in-memory
	// append: device byte order must match LSN order even when concurrent
	// Appends race to the flush below.
	devErr := l.dev.Append(enc)
	// With a shipper installed the record joins the ship queue here too, for
	// the same reason: the syncs below finish in any order, the queue must be
	// in LSN order. The ship stage takes it once the durable frontier covers
	// it.
	var p *pendingAppend
	if devErr == nil && l.shipper.Load() != nil {
		p = &pendingAppend{lsn: lsn, done: make(chan error, 1)}
		l.shipQ = append(l.shipQ, shipBatch{off: off, end: len(l.buf), first: lsn, last: lsn, members: []*pendingAppend{p}})
		l.noteShipQueueLocked()
	}
	l.mu.Unlock()
	if devErr != nil {
		devErr = fmt.Errorf("wal: device append: %w", devErr)
		l.poison(devErr)
		return 0, devErr
	}
	if err := l.syncDevice(); err != nil {
		l.poison(err)
		return 0, err
	}
	l.advanceDurable(lsn)
	if p == nil {
		return lsn, nil
	}
	l.mu.Lock()
	l.kickShipperLocked()
	l.mu.Unlock()
	return lsn, <-p.done
}

// appendGroup enqueues the record and blocks until its batch is flushed.
// The flush is a role, held by one committer at a time: the caller that
// finds no flush in progress takes it, and otherwise the caller may be
// handed it while it waits (see runFlusher). Either way a committer flushes
// at most one batch, the one holding its own record, and then waits only
// for its own outcome.
func (l *Log) appendGroup(txnID uint64, ops []Op) (uint64, error) {
	l.mu.Lock()
	if err := l.crashErr; err != nil {
		l.mu.Unlock()
		return 0, err
	}
	lsn := l.nextLSN
	enc, err := encodeRecord(Record{LSN: lsn, TxnID: txnID, Ops: ops})
	if err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.nextLSN++
	p := &pendingAppend{lsn: lsn, enc: enc, done: make(chan error, 1), role: make(chan struct{}, 1)}
	l.pending = append(l.pending, p)
	if len(l.pending) >= l.opt.maxBatch() {
		select {
		case l.full <- struct{}{}:
		default:
		}
	}
	lead := !l.flushing
	if lead {
		l.flushing = true
	}
	l.mu.Unlock()
	if !lead {
		if l.parked != nil {
			l.parked(lsn)
		}
		select {
		case <-p.role:
		case err := <-p.done:
			// A crash can fail p with the role already in transit to it. The
			// role is handed under l.mu while p is still pending, before any
			// poisoning detaches p, so it is visible here if it was sent; it
			// must then be given up, or no later Append could flush.
			select {
			case <-p.role:
				p.done <- err // the slot just emptied: keep the outcome for below
			default:
				return lsn, err
			}
		}
	}
	l.runFlusher()
	return lsn, <-p.done
}

// runFlusher runs one turn of the flush role: wait out the batching window,
// cut one batch (the holder's own record is always in it: the holder is the
// oldest pending record), flush it, then hand the role to the oldest record
// still pending, or give it up if there is none. The next holder cuts
// everything queued by the time it runs, so batching still comes from
// backpressure: followers accumulate while the current holder is on the
// device. A holder that finds the log poisoned, or nothing pending, gives the
// role up without flushing. A crash fired in the batch poisons the log and
// fails everything still parked in either stage.
func (l *Log) runFlusher() {
	l.waitWindow()
	l.mu.Lock()
	if l.crashErr != nil || len(l.pending) == 0 {
		l.flushing = false
		l.mu.Unlock()
		return
	}
	n := min(len(l.pending), l.opt.maxBatch())
	batch := make([]*pendingAppend, n)
	copy(batch, l.pending[:n])
	l.pending = append(l.pending[:0], l.pending[n:]...)
	l.mu.Unlock()

	err := l.flushBatch(batch)

	l.mu.Lock()
	var orphans []*pendingAppend
	switch {
	case err != nil:
		orphans = l.poisonLocked(err)
		l.flushing = false
	case len(l.pending) == 0:
		l.flushing = false
	default:
		l.pending[0].role <- struct{}{}
	}
	l.mu.Unlock()
	finish(orphans, err)
}

// waitWindow lets followers accumulate for up to MaxWait, cut short when
// the batch fills.
func (l *Log) waitWindow() {
	if l.opt.MaxWait <= 0 {
		return
	}
	l.mu.Lock()
	n := len(l.pending)
	l.mu.Unlock()
	if n >= l.opt.maxBatch() {
		return
	}
	timer := time.NewTimer(l.opt.MaxWait)
	defer timer.Stop()
	select {
	case <-l.full:
	case <-timer.C:
	}
}

// flushBatch is the fsync stage: it makes one batch durable with a single
// fsync and then either acknowledges its members (no shipper installed) or
// hands them to the ship stage and returns, so the next batch's fsync overlaps
// this one's ship. A fired crash point is caught here and returned: before
// the fsync, none of the batch has reached the durable image (on a real device
// the batch's bytes are at most staged, never synced — a process death loses
// them); after it, all of it has, but no member is acknowledged — either
// way, no torn batches. Device errors are returned like crashes: the log is
// poisoned and the whole batch fails.
//
// The leader's own fsync is deliberately not overlapped with the ship: a
// follower holding bytes the leader lost would, after a cold restart of the
// leader, skip the leader's reused LSNs as already applied.
func (l *Log) flushBatch(batch []*pendingAppend) error {
	queued := false
	err := func() (err error) {
		defer func() { err = sim.RecoverCrash(recover(), err) }()
		l.opt.Crash.Check(CrashPointBeforeFsync)
		l.mu.Lock()
		off := len(l.buf)
		for _, p := range batch {
			l.buf = append(l.buf, p.enc...)
		}
		end := len(l.buf)
		devErr := l.dev.Append(l.buf[off:end:end])
		l.mu.Unlock()
		if devErr != nil {
			return fmt.Errorf("wal: device append: %w", devErr)
		}
		if err := l.syncDevice(); err != nil {
			return err
		}
		first, last := batch[0].lsn, batch[len(batch)-1].lsn
		l.advanceDurable(last)
		l.opt.Crash.Check(CrashPointAfterFsync)
		if l.shipper.Load() == nil {
			return nil
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.crashErr != nil {
			return l.crashErr // the ship stage died during this fsync
		}
		l.shipQ = append(l.shipQ, shipBatch{off: off, end: end, first: first, last: last, members: batch})
		l.noteShipQueueLocked()
		l.kickShipperLocked()
		queued = true
		return nil
	}()
	om := l.om.Load()
	om.batches.Inc()
	om.batchSize.ObserveValue(int64(len(batch)))
	if !queued {
		finish(batch, err)
	}
	return err
}

// kickShipperLocked starts the ship stage if it is not running and the head
// of the ship queue is durable. Caller holds l.mu.
func (l *Log) kickShipperLocked() {
	if !l.shipping && l.shippableLocked() > 0 {
		l.shipping = true
		go l.runShipper()
	}
}

// shippableLocked returns how many batches at the head of the ship queue one
// shipper call can cover: those at or below the durable frontier (per-commit
// records queue at staging time, before their sync) that are contiguous in
// the log image. Caller holds l.mu.
func (l *Log) shippableLocked() int {
	durable := l.durable.Load()
	n := 0
	for n < len(l.shipQ) && l.shipQ[n].last <= durable &&
		(n == 0 || l.shipQ[n].off == l.shipQ[n-1].end) {
		n++
	}
	return n
}

// noteShipQueueLocked publishes the ship stage's depth. Caller holds l.mu.
func (l *Log) noteShipQueueLocked() {
	l.om.Load().shipQueue.Set(int64(len(l.shipQ) + len(l.inflight)))
}

// runShipper is the ship stage: take everything shippable as one contiguous
// byte range, make one shipper call for it, acknowledge the members it
// covered, repeat until nothing is shippable, then give the role up. The
// goroutine exists only while there is something to ship, so an idle log
// (and a log with no shipper) runs none.
//
// A repl/ship crash point fired here poisons the log exactly like one in the
// fsync stage. A round whose call was still out when the other stage died
// finds its members already failed (poisonLocked emptied inflight) and
// acknowledges nobody.
func (l *Log) runShipper() {
	for {
		l.mu.Lock()
		n := l.shippableLocked()
		if n == 0 {
			l.shipping = false
			l.mu.Unlock()
			return
		}
		l.inflight, l.shipQ = l.shipQ[:n:n], l.shipQ[n:]
		first, last := l.inflight[0].first, l.inflight[n-1].last
		end := l.inflight[n-1].end
		raw := l.buf[l.inflight[0].off:end:end]
		l.mu.Unlock()

		err := func() (err error) {
			defer func() { err = sim.RecoverCrash(recover(), err) }()
			l.ship(raw, first, last)
			return nil
		}()

		l.mu.Lock()
		var members []*pendingAppend
		if err != nil {
			members = l.poisonLocked(err)
			l.shipping = false
		} else {
			for _, b := range l.inflight {
				members = append(members, b.members...)
			}
			l.inflight = nil
			l.noteShipQueueLocked()
		}
		l.mu.Unlock()
		finish(members, err)
		if err != nil {
			return
		}
	}
}

// Recover reopens a log poisoned by a fired crash point: the durable image
// is kept as-is (it is what survived), both queues were already failed by the
// dying stage. The engine calls this from its own Recover.
//
// LSNs handed to appends that died unflushed were never written; Recover
// frees them, as a cold restart would (Load), so the log stays gapless and a
// follower, which refuses a chunk that skips an LSN, can keep following a
// recovered leader. Batches that were durable but unshipped at the crash are
// not re-shipped: the first shipper call after Recover starts past them, the
// follower refuses it and fetches them through catch-up.
func (l *Log) Recover() {
	l.mu.Lock()
	if l.crashErr != nil {
		if _, _, last, err := SliceFrom(l.buf, 0); err == nil {
			l.nextLSN = max(last, l.durable.Load()) + 1
		}
		l.crashErr = nil
	}
	l.mu.Unlock()
}

// AppendRaw durably appends already-encoded records received from a
// replication stream. lastLSN is the highest LSN in raw; the log's own LSN
// counter is bumped past it so a promoted follower continues the dead
// leader's sequence with no overlap. One fsync covers the whole chunk —
// followers inherit the leader's batching for free.
func (l *Log) AppendRaw(raw []byte, lastLSN uint64) error {
	if len(raw) == 0 {
		return nil
	}
	l.mu.Lock()
	if err := l.crashErr; err != nil {
		l.mu.Unlock()
		return err
	}
	l.buf = append(l.buf, raw...)
	if lastLSN >= l.nextLSN {
		l.nextLSN = lastLSN + 1
	}
	devErr := l.dev.Append(raw)
	l.mu.Unlock()
	if devErr != nil {
		devErr = fmt.Errorf("wal: device append: %w", devErr)
		l.poison(devErr)
		return devErr
	}
	if err := l.syncDevice(); err != nil {
		l.poison(err)
		return err
	}
	l.advanceDurable(lastLSN)
	return nil
}

// SliceFrom returns the suffix of raw holding the records with LSN >
// afterLSN, plus the LSN range the suffix covers. It relies on the log's
// append-in-LSN-order invariant: records are scanned front to back and the
// suffix starts at the first record past afterLSN. Used by leaders to cut
// catch-up snapshots for a subscriber and by followers to drop the
// already-applied prefix of an overlapping batch.
func SliceFrom(raw []byte, afterLSN uint64) (suffix []byte, first, last uint64, err error) {
	off := 0
	start := -1
	for off < len(raw) {
		rec, n, derr := decodeRecord(raw[off:])
		if derr != nil {
			if errors.Is(derr, errTruncated) && off+n >= len(raw) {
				break // torn tail write: everything decodable was scanned
			}
			return nil, 0, 0, fmt.Errorf("%w at offset %d: %v", ErrCorrupt, off, derr)
		}
		if rec.LSN > afterLSN {
			if start < 0 {
				start = off
				first = rec.LSN
			}
			last = rec.LSN
		}
		off += n
	}
	if start < 0 {
		return nil, 0, 0, nil
	}
	return raw[start:off], first, last, nil
}

// Scan invokes fn for each record with its LSN and encoded bytes (aliasing
// raw). Like Replay it tolerates a torn tail; unlike Replay it exposes record
// boundaries, which replication uses to cut catch-up snapshots into frames
// without re-encoding.
func Scan(raw []byte, fn func(lsn uint64, rec []byte) error) error {
	off := 0
	for off < len(raw) {
		r, n, err := decodeRecord(raw[off:])
		if err != nil {
			if errors.Is(err, errTruncated) && off+n >= len(raw) {
				return nil
			}
			return fmt.Errorf("%w at offset %d: %v", ErrCorrupt, off, err)
		}
		if err := fn(r.LSN, raw[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Bytes returns a copy of the raw log contents (what survives a crash).
func (l *Log) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]byte, len(l.buf))
	copy(out, l.buf)
	return out
}

// Len returns the number of bytes in the log.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Replay decodes records from raw in order, invoking fn for each. A cleanly
// truncated tail ends replay without error (torn final write); a checksum
// mismatch before the tail returns ErrCorrupt.
func Replay(raw []byte, fn func(Record) error) error {
	off := 0
	for off < len(raw) {
		rec, n, err := decodeRecord(raw[off:])
		if err != nil {
			if errors.Is(err, errTruncated) && off+n >= len(raw) {
				return nil // torn tail write
			}
			return fmt.Errorf("%w at offset %d: %v", ErrCorrupt, off, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Encode returns rec's full on-log frame: length prefix, payload, CRC —
// exactly what Append writes. Checkpoint writers use it to emit synthetic
// records (a snapshot of the committed projection) in the same encoding the
// recovery scanner replays.
func Encode(rec Record) ([]byte, error) { return encodeRecord(rec) }

// Records decodes the whole log into memory (test/diagnostic helper).
func Records(raw []byte) ([]Record, error) {
	var out []Record
	err := Replay(raw, func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// ValidPrefix decodes the longest decodable prefix of raw and returns its
// records plus the prefix length in bytes. Unlike Replay it never fails:
// decoding stops at the first bad frame whether it is a torn tail or a
// mid-log checksum mismatch. This is the forensic iteration primitive for
// provenance queries, which must never attribute a write to bytes past the
// last valid frame — a record after corruption could be a stale frame from
// a recycled segment, so nothing beyond the prefix is trusted.
func ValidPrefix(raw []byte) (recs []Record, valid int) {
	off := 0
	for off < len(raw) {
		rec, n, err := decodeRecord(raw[off:])
		if err != nil {
			break
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off
}

// ---- encoding ----
//
// record  := len(u32) | payload | crc32(u32 over payload)
// payload := lsn(u64) | txnid(u64) | nops(u32) | op*
// op      := kind(u8) | table(str) | pk(i64) | hasRow(u8) | [ncols(u32) | value*]
// value   := tag(u8) | data
// str     := len(u32) | bytes

var errTruncated = errors.New("wal: truncated record")

const (
	tagNull uint8 = iota
	tagInt
	tagFloat
	tagString
	tagBool
	tagTime
)

type encoder struct{ b []byte }

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }

func (e *encoder) value(v storage.Value) error {
	switch x := v.(type) {
	case nil:
		e.u8(tagNull)
	case int64:
		e.u8(tagInt)
		e.i64(x)
	case float64:
		e.u8(tagFloat)
		e.u64(math.Float64bits(x))
	case string:
		e.u8(tagString)
		e.str(x)
	case bool:
		e.u8(tagBool)
		if x {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case time.Time:
		e.u8(tagTime)
		e.i64(x.Unix())
		e.u32(uint32(x.Nanosecond()))
	default:
		return fmt.Errorf("wal: unsupported value type %T", v)
	}
	return nil
}

func encodeRecord(rec Record) ([]byte, error) {
	var e encoder
	e.u64(rec.LSN)
	e.u64(rec.TxnID)
	e.u32(uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		e.u8(uint8(op.Kind))
		e.str(op.Table)
		e.i64(op.PK)
		if op.Row == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		e.u32(uint32(len(op.Row)))
		for _, v := range op.Row {
			if err := e.value(v); err != nil {
				return nil, err
			}
		}
	}
	payload := e.b
	var out encoder
	out.u32(uint32(len(payload)))
	out.b = append(out.b, payload...)
	out.u32(crc32.ChecksumIEEE(payload))
	return out.b, nil
}

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) need(n int) error {
	if d.off+n > len(d.b) {
		return errTruncated
	}
	return nil
}

func (d *decoder) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) value() (storage.Value, error) {
	tag, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNull:
		return nil, nil
	case tagInt:
		v, err := d.u64()
		return int64(v), err
	case tagFloat:
		v, err := d.u64()
		return math.Float64frombits(v), err
	case tagString:
		return d.str()
	case tagBool:
		v, err := d.u8()
		return v != 0, err
	case tagTime:
		sec, err := d.u64()
		if err != nil {
			return nil, err
		}
		nsec, err := d.u32()
		if err != nil {
			return nil, err
		}
		return time.Unix(int64(sec), int64(nsec)).UTC(), nil
	default:
		return nil, fmt.Errorf("wal: unknown value tag %d", tag)
	}
}

// decodeRecord decodes one record from the front of raw, returning the
// record and the number of bytes consumed (or attempted).
func decodeRecord(raw []byte) (Record, int, error) {
	d := &decoder{b: raw}
	plen, err := d.u32()
	if err != nil {
		return Record{}, len(raw), err
	}
	total := 4 + int(plen) + 4
	if total > len(raw) {
		return Record{}, total, errTruncated
	}
	payload := raw[4 : 4+plen]
	wantCRC := binary.LittleEndian.Uint32(raw[4+plen:])
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return Record{}, total, errors.New("checksum mismatch")
	}
	pd := &decoder{b: payload}
	var rec Record
	if rec.LSN, err = pd.u64(); err != nil {
		return Record{}, total, err
	}
	if rec.TxnID, err = pd.u64(); err != nil {
		return Record{}, total, err
	}
	nops, err := pd.u32()
	if err != nil {
		return Record{}, total, err
	}
	rec.Ops = make([]Op, 0, nops)
	for i := uint32(0); i < nops; i++ {
		var op Op
		kind, err := pd.u8()
		if err != nil {
			return Record{}, total, err
		}
		op.Kind = OpKind(kind)
		if op.Table, err = pd.str(); err != nil {
			return Record{}, total, err
		}
		pk, err := pd.u64()
		if err != nil {
			return Record{}, total, err
		}
		op.PK = int64(pk)
		hasRow, err := pd.u8()
		if err != nil {
			return Record{}, total, err
		}
		if hasRow == 1 {
			ncols, err := pd.u32()
			if err != nil {
				return Record{}, total, err
			}
			op.Row = make(storage.Row, ncols)
			for c := uint32(0); c < ncols; c++ {
				if op.Row[c], err = pd.value(); err != nil {
					return Record{}, total, err
				}
			}
		}
		rec.Ops = append(rec.Ops, op)
	}
	return rec, total, nil
}
