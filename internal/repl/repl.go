// Package repl is the leader/follower log-replication subsystem: it ships
// the WAL's group-commit batches to follower engine nodes over the binary
// wire protocol and strengthens the durability invariant from
// "acknowledged ⊆ recovered" to "acknowledged ⊆ replicated".
//
// Topology per partition: one Leader owns the writable engine and a
// replication listener; each Follower owns a read-only engine and one
// outbound connection. A follower subscribes with its applied LSN; the
// leader first streams catch-up SNAPSHOT frames cut from its durable log at
// record boundaries, then pushes every subsequent group-commit batch as a
// BATCH frame the instant it is locally durable (the WAL's shipper hook).
// Followers apply idempotently by LSN (engine.ApplyReplicated) and push ACK
// frames carrying their durable frontier.
//
// Ack quorums: Async acknowledges commits on local durability alone (the
// pre-replication contract). SemiSync holds every commit ack until at least
// one follower has the batch durable, so losing the leader loses no
// acknowledged commit as long as any follower survives — MySQL semisync's
// contract, and the one the failover chaos suite proves. Majority holds the
// ack until a majority of the replica set (leader included) has the batch.
// A non-zero AckTimeout degrades a stalled quorum wait to async (counted by
// repl_degraded_total) instead of wedging commits forever, mirroring
// rpl_semi_sync_master_timeout; leave it zero to hold the strict guarantee.
//
// Failover: the supervisor (see chaos.ReplRun) promotes the follower with
// the highest applied LSN. Promotion bumps the epoch; frames from a deposed
// leader's lower epoch are rejected by followers, and subscribers claiming a
// higher epoch than a leader's own tell that leader it has been superseded.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/obs"
	"adhoctx/internal/wal"
	"adhoctx/internal/wire"
)

// Quorum selects how many replicas must hold a batch durably before its
// commits are acknowledged.
type Quorum int

// Quorum modes.
const (
	// Async: local durability only; shipping is fire-and-forget.
	Async Quorum = iota
	// SemiSync: at least one follower has the batch durable.
	SemiSync
	// Majority: a majority of the replica set (leader included).
	Majority
)

// String implements fmt.Stringer.
func (q Quorum) String() string {
	switch q {
	case Async:
		return "async"
	case SemiSync:
		return "semisync"
	case Majority:
		return "majority"
	default:
		return fmt.Sprintf("quorum(%d)", int(q))
	}
}

// maxChunk bounds the WAL bytes per catch-up SNAPSHOT frame, comfortably
// under wire.MaxFrame with frame headers included.
const maxChunk = 256 << 10

// outboxDepth bounds queued frames per follower. A follower that falls this
// far behind the live stream is cut off and reconnects through the catch-up
// path, which is built for arbitrary gaps; stalling the leader's ship stage
// on its slowest follower's socket is never acceptable.
const outboxDepth = 256

// LeaderConfig configures a replication leader.
type LeaderConfig struct {
	// Addr is the replication listen address ("127.0.0.1:0" for tests).
	Addr string
	// Partition is the partition this leader owns; subscribers naming any
	// other partition are rejected.
	Partition uint32
	// Epoch is the leader's term, bumped on every promotion.
	Epoch uint64
	// Quorum is the ack mode.
	Quorum Quorum
	// Replicas is the replica-set size including the leader (Majority mode).
	Replicas int
	// AckTimeout degrades a stalled quorum wait to async after this long;
	// 0 waits forever (strict semi-sync).
	AckTimeout time.Duration
	// WrapConn, when non-nil, wraps accepted replication connections (fault
	// injection seam, like server.Config.WrapConn).
	WrapConn func(net.Conn) net.Conn
	// Obs, when non-nil, receives the replication metrics.
	Obs *obs.Registry
}

// leaderMetrics is the leader's resolved instrument set.
type leaderMetrics struct {
	shipped  *obs.Counter
	acks     *obs.Counter
	degraded *obs.Counter
	lag      *obs.Gauge
}

// Leader accepts follower subscriptions and ships the engine's WAL to them.
// Start installs the WAL shipper hook; Close uninstalls it.
type Leader struct {
	eng *engine.Engine
	cfg LeaderConfig
	ln  net.Listener

	mu        sync.Mutex
	cond      *sync.Cond
	followers map[*followerConn]struct{}
	closed    bool

	wg sync.WaitGroup

	degrades atomic.Int64
	om       *leaderMetrics
}

// followerConn is the leader's view of one subscribed follower.
type followerConn struct {
	conn   net.Conn
	outbox chan []byte // encoded frames, oldest first
	ack    uint64      // guarded by Leader.mu
	gone   bool        // guarded by Leader.mu
}

// NewLeader returns an unstarted leader for eng's partition.
func NewLeader(eng *engine.Engine, cfg LeaderConfig) *Leader {
	l := &Leader{eng: eng, cfg: cfg, followers: make(map[*followerConn]struct{})}
	l.cond = sync.NewCond(&l.mu)
	if cfg.Obs != nil {
		l.om = &leaderMetrics{
			shipped:  cfg.Obs.Counter("repl_shipped_batches_total"),
			acks:     cfg.Obs.Counter("repl_acks_total"),
			degraded: cfg.Obs.Counter("repl_degraded_total"),
			lag:      cfg.Obs.Gauge("repl_lag_lsn"),
		}
	}
	return l
}

// Start listens for subscribers and installs the WAL shipper hook. From this
// point every locally durable batch blocks commit acknowledgement on the
// configured quorum.
func (l *Leader) Start() error {
	ln, err := net.Listen("tcp", l.cfg.Addr)
	if err != nil {
		return err
	}
	l.ln = ln
	l.eng.WAL().SetShipper(l.Ship)
	l.wg.Add(1)
	go l.acceptLoop()
	return nil
}

// Addr returns the replication listen address.
func (l *Leader) Addr() string {
	if l.ln == nil {
		return l.cfg.Addr
	}
	return l.ln.Addr().String()
}

// Epoch returns the leader's term.
func (l *Leader) Epoch() uint64 { return l.cfg.Epoch }

// Degrades returns how many quorum waits timed out into async mode.
func (l *Leader) Degrades() int64 { return l.degrades.Load() }

// Close uninstalls the shipper hook, stops the listener, disconnects every
// follower, and releases any commit stuck in a quorum wait.
func (l *Leader) Close() {
	l.eng.WAL().SetShipper(nil)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	conns := make([]*followerConn, 0, len(l.followers))
	for fc := range l.followers {
		conns = append(conns, fc)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	if l.ln != nil {
		l.ln.Close()
	}
	for _, fc := range conns {
		fc.conn.Close()
	}
	l.wg.Wait()
}

func (l *Leader) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		if l.cfg.WrapConn != nil {
			conn = l.cfg.WrapConn(conn)
		}
		l.wg.Add(1)
		go l.serveFollower(conn)
	}
}

// serveFollower runs one subscriber: handshake, subscribe, catch-up, then a
// writer/reader pair until either side drops.
func (l *Leader) serveFollower(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	if err := wire.ServerHandshake(conn); err != nil {
		return
	}
	// One buffered reader for the whole stream: the subscribe frame here and
	// the ack loop below. A second reader would strand whatever the first
	// had read ahead.
	br := bufio.NewReader(conn)
	payload, err := wire.ReadFrame(br, nil)
	if err != nil {
		return
	}
	var sub wire.ReplFrame
	if err := wire.DecodeReplFrame(payload, &sub); err != nil || sub.Kind != wire.ReplSubscribe {
		return
	}
	if sub.Partition != l.cfg.Partition || sub.Epoch > l.cfg.Epoch {
		// Wrong partition, or the cluster has moved past this leader's term
		// — either way this leader must not feed it.
		return
	}

	fc := &followerConn{conn: conn, outbox: make(chan []byte, outboxDepth), ack: sub.FromLSN}

	// Cut the catch-up snapshot and register under one critical section.
	// Ship enqueues under the same mutex after its batch is durable, so the
	// follower's stream is gapless: everything durable before registration
	// is in the snapshot, everything after is enqueued behind it (overlap is
	// fine — apply is idempotent by LSN). The cut stops at the durable
	// frontier, read before the log image: the image also holds the batch
	// the WAL is fsyncing right now, and a follower must never hold bytes
	// the leader could still lose. That batch reaches this subscriber
	// through Ship, which cannot run for it until it is durable — after this
	// read — and so enqueues behind the registration below.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	durable := l.eng.AppliedLSN()
	suffix, _, _, serr := wal.SliceFrom(l.eng.WALBytes(), sub.FromLSN)
	if serr != nil {
		l.mu.Unlock()
		return
	}
	snapshot := cutChunks(suffix, durable)
	l.followers[fc] = struct{}{}
	l.mu.Unlock()

	done := make(chan struct{})
	go func() { // writer: catch-up snapshot first, then drain the outbox
		defer close(done)
		for _, ch := range snapshot {
			frame := ch.encode(l.cfg.Epoch, wire.ReplSnapshot)
			if frame == nil {
				conn.Close() // a record too large to frame: nothing to send
				return
			}
			if _, err := conn.Write(frame); err != nil {
				conn.Close() // unblocks the reader below
				return
			}
		}
		// Outbox frames are sealed by Ship and shared by every follower's
		// writer, so they are written as they are: one Write per frame.
		for frame := range fc.outbox {
			if _, err := conn.Write(frame); err != nil {
				conn.Close()
				return
			}
		}
	}()

	var buf []byte
	var ack wire.ReplFrame
	for { // reader: acks
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			break
		}
		buf = payload
		if err := wire.DecodeReplFrame(payload, &ack); err != nil || ack.Kind != wire.ReplAck {
			break
		}
		l.noteAck(fc, ack.AckLSN)
	}
	// Deregister, then close the outbox to end the writer. Ship only
	// enqueues to registered followers under l.mu, so close cannot race a
	// send; any frames still queued fail their write against the closed conn.
	l.mu.Lock()
	fc.gone = true
	delete(l.followers, fc)
	close(fc.outbox)
	l.cond.Broadcast()
	l.mu.Unlock()
	conn.Close()
	<-done
}

// noteAck records a follower's durable frontier and wakes quorum waiters.
func (l *Leader) noteAck(fc *followerConn, lsn uint64) {
	l.mu.Lock()
	if lsn > fc.ack {
		fc.ack = lsn
	}
	l.cond.Broadcast()
	lag := l.lagLocked()
	l.mu.Unlock()
	if l.om != nil {
		l.om.acks.Inc()
		l.om.lag.Set(lag)
	}
}

// lagLocked computes the replication lag in LSNs: the leader's durable
// frontier minus the slowest connected follower's ack (0 with no followers).
func (l *Leader) lagLocked() int64 {
	durable := l.eng.AppliedLSN()
	var minAck uint64
	first := true
	for fc := range l.followers {
		if first || fc.ack < minAck {
			minAck = fc.ack
			first = false
		}
	}
	if first || minAck >= durable {
		return 0
	}
	return int64(durable - minAck)
}

// FollowerAcks returns the ack frontier of every connected follower
// (diagnostics; the chaos supervisor reads applied LSNs from the follower
// side instead, which also covers disconnected nodes).
func (l *Leader) FollowerAcks() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, 0, len(l.followers))
	for fc := range l.followers {
		out = append(out, fc.ack)
	}
	return out
}

// ackNeeded returns how many follower acks a batch needs before its commits
// may be acknowledged.
func (l *Leader) ackNeeded() int {
	switch l.cfg.Quorum {
	case SemiSync:
		return 1
	case Majority:
		n := l.cfg.Replicas
		if n < 2 {
			return 0
		}
		return n/2 + 1 - 1 // majority of the set, minus the leader itself
	default:
		return 0
	}
}

// Ship is the WAL shipper hook: raw covers records first..last, already
// locally durable. It broadcasts them as one frame to every connected
// follower and blocks until the quorum holds them durably (or the AckTimeout
// degrade fires). The WAL's ship stage calls it serially and in LSN order,
// and acknowledges the commits a call covers only when it returns — that is
// the point. The flusher is not held meanwhile: the batches it fsyncs during
// this call arrive together as the next call's range.
func (l *Leader) Ship(raw []byte, first, last uint64) {
	frame := chunk{raw: raw, first: first, last: last}.encode(l.cfg.Epoch, wire.ReplBatch)
	l.mu.Lock()
	for fc := range l.followers {
		queued := false
		if frame != nil {
			select {
			case fc.outbox <- frame:
				queued = true
			default:
			}
		}
		if !queued {
			// Hopelessly behind (outbox full), or the range does not fit one
			// frame: cut it off rather than stall the ship stage. It
			// reconnects through catch-up, which re-sends the range in
			// chunks, and the quorum wait below still holds these commits.
			fc.conn.Close()
		}
	}
	need := l.ackNeeded()
	if l.om != nil {
		l.om.shipped.Inc()
		l.om.lag.Set(l.lagLocked())
	}
	if need == 0 {
		l.mu.Unlock()
		return
	}

	var deadline *time.Timer
	timedOut := false
	if l.cfg.AckTimeout > 0 {
		deadline = time.AfterFunc(l.cfg.AckTimeout, func() {
			l.mu.Lock()
			timedOut = true
			l.cond.Broadcast()
			l.mu.Unlock()
		})
	}
	for !l.closed && !timedOut && l.ackedLocked(last) < need {
		l.cond.Wait()
	}
	degraded := timedOut && l.ackedLocked(last) < need
	l.mu.Unlock()
	if deadline != nil {
		deadline.Stop()
	}
	if degraded {
		l.degrades.Add(1)
		if l.om != nil {
			l.om.degraded.Inc()
		}
	}
}

// ackedLocked counts followers whose durable frontier covers lsn.
func (l *Leader) ackedLocked(lsn uint64) int {
	n := 0
	for fc := range l.followers {
		if !fc.gone && fc.ack >= lsn {
			n++
		}
	}
	return n
}

// chunk is one catch-up frame's worth of WAL bytes.
type chunk struct {
	raw         []byte
	first, last uint64
}

// encode returns the chunk as a sealed frame, length prefix filled in, ready
// for a single conn.Write (nil if it cannot be framed).
func (c chunk) encode(epoch uint64, kind wire.ReplKind) []byte {
	b, err := wire.AppendReplFrame(wire.StartFrame(nil), &wire.ReplFrame{
		Kind: kind, Epoch: epoch, FirstLSN: c.first, LastLSN: c.last, Raw: c.raw,
	})
	if err != nil || wire.SealFrame(b) != nil {
		return nil
	}
	return b
}

// cutChunks splits the records of raw up to LSN limit into maxChunk-bounded
// pieces, at record boundaries. Records above the limit are the log's tail
// (at most the batch being fsynced), so skipping them cuts nothing out of
// the middle.
func cutChunks(raw []byte, limit uint64) []chunk {
	var out []chunk
	var cur chunk
	start := 0
	off := 0
	_ = wal.Scan(raw, func(lsn uint64, rec []byte) error {
		if lsn > limit {
			return nil
		}
		if len(cur.raw) > 0 && len(cur.raw)+len(rec) > maxChunk {
			out = append(out, cur)
			start = off
			cur = chunk{}
		}
		off += len(rec)
		cur.raw = raw[start:off]
		if cur.first == 0 {
			cur.first = lsn
		}
		cur.last = lsn
		return nil
	})
	if len(cur.raw) > 0 {
		out = append(out, cur)
	}
	return out
}

// errStaleEpoch reports a frame from a deposed leader.
var errStaleEpoch = errors.New("repl: frame from a stale leader epoch")
