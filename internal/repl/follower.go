package repl

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/obs"
	"adhoctx/internal/sim"
	"adhoctx/internal/wire"
)

// Crash points checked by the follower's apply loop (see sim.CrashPlan).
const (
	// CrashPointApplyBefore fires with a batch received but none of it
	// applied: the follower dies holding only what it already acked.
	CrashPointApplyBefore = "repl/apply:before"
	// CrashPointApplyAfter fires with the batch durable and visible locally
	// but the ack unsent: the leader must tolerate re-acking after
	// reconnect (idempotent by LSN).
	CrashPointApplyAfter = "repl/apply:after"
)

// FollowerConfig configures a replication follower.
type FollowerConfig struct {
	// LeaderAddr is the leader's replication listen address.
	LeaderAddr string
	// Partition must match the leader's.
	Partition uint32
	// Epoch is the highest leader term this follower has seen (0 at boot).
	Epoch uint64
	// Dial, when non-nil, replaces net.Dial (fault injection seam).
	Dial func(network, addr string) (net.Conn, error)
	// RetryInterval paces reconnect attempts (default 25ms).
	RetryInterval time.Duration
	// Crash, when non-nil, arms the repl/apply crash points.
	Crash *sim.CrashPlan
	// Obs, when non-nil, receives the apply-latency histogram.
	Obs *obs.Registry
}

// Follower subscribes a read-only engine to a leader's replication stream
// and applies batches as they arrive. It reconnects (and re-subscribes from
// its durable frontier) after any stream error — a torn frame from a dying
// leader is indistinguishable from a dropped connection and is handled
// identically.
type Follower struct {
	eng *engine.Engine
	cfg FollowerConfig

	mu      sync.Mutex
	conn    net.Conn
	stopped bool

	epoch   atomic.Uint64
	crashed atomic.Bool
	wg      sync.WaitGroup

	applyHist *obs.Histogram
}

// NewFollower returns an unstarted follower feeding eng.
func NewFollower(eng *engine.Engine, cfg FollowerConfig) *Follower {
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 25 * time.Millisecond
	}
	f := &Follower{eng: eng, cfg: cfg}
	f.epoch.Store(cfg.Epoch)
	if cfg.Obs != nil {
		f.applyHist = cfg.Obs.Histogram("repl_apply_seconds")
	}
	return f
}

// Start launches the subscribe/apply loop.
func (f *Follower) Start() {
	f.wg.Add(1)
	go f.run()
}

// AppliedLSN returns the follower's durable replication frontier — the
// promotion criterion (highest wins) and the staleness clock its read
// sessions are judged by.
func (f *Follower) AppliedLSN() uint64 { return f.eng.AppliedLSN() }

// LastEpoch returns the highest leader term observed.
func (f *Follower) LastEpoch() uint64 { return f.epoch.Load() }

// Crashed reports whether an armed repl/apply crash point killed the apply
// loop (the follower node is dead, not merely disconnected).
func (f *Follower) Crashed() bool { return f.crashed.Load() }

// Stop ends the apply loop and closes the stream.
func (f *Follower) Stop() {
	f.mu.Lock()
	f.stopped = true
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// Retarget points the follower at a new leader (after a promotion) and
// revives the loop if it had stopped. The current stream, if any, is cut;
// the next subscribe resumes from the follower's durable frontier.
func (f *Follower) Retarget(leaderAddr string) {
	f.mu.Lock()
	f.cfg.LeaderAddr = leaderAddr
	revive := f.stopped && !f.crashed.Load()
	f.stopped = f.stopped && !revive
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	if revive {
		f.Start()
	}
}

// Promote stops following and returns a started Leader on this follower's
// engine with the next epoch. The caller re-targets surviving followers at
// Leader.Addr() and flips its serving node writable.
func (f *Follower) Promote(cfg LeaderConfig) (*Leader, error) {
	f.Stop()
	if cfg.Epoch == 0 {
		cfg.Epoch = f.LastEpoch() + 1
	}
	l := NewLeader(f.eng, cfg)
	if err := l.Start(); err != nil {
		return nil, err
	}
	return l, nil
}

func (f *Follower) run() {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		stopped := f.stopped
		f.mu.Unlock()
		if stopped {
			return
		}
		if err := f.stream(); err != nil {
			if sim.IsCrash(err) {
				f.crashed.Store(true)
				return
			}
		}
		time.Sleep(f.cfg.RetryInterval)
	}
}

// stream runs one connection worth of subscribe/apply/ack. Any transport or
// decode error returns (the caller reconnects); an armed crash point returns
// the *sim.CrashError (the caller treats the node as dead).
func (f *Follower) stream() (err error) {
	defer func() { err = sim.RecoverCrash(recover(), err) }()

	dial := f.cfg.Dial
	if dial == nil {
		dial = net.Dial
	}
	f.mu.Lock()
	addr := f.cfg.LeaderAddr // Retarget rewrites this between streams
	f.mu.Unlock()
	conn, err := dial("tcp", addr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		conn.Close()
		return nil
	}
	f.conn = conn
	f.mu.Unlock()
	defer conn.Close()

	if err := wire.ClientHandshake(conn); err != nil {
		return err
	}
	sub, err := wire.AppendReplFrame(wire.StartFrame(nil), &wire.ReplFrame{
		Kind:      wire.ReplSubscribe,
		Partition: f.cfg.Partition,
		Epoch:     f.epoch.Load(),
		FromLSN:   f.eng.AppliedLSN(),
	})
	if err != nil {
		return err
	}
	if err := wire.WriteFrame(conn, sub); err != nil {
		return err
	}

	br := bufio.NewReader(conn) // the stream's one reader
	var buf, ack []byte
	var fr wire.ReplFrame
	for {
		payload, rerr := wire.ReadFrame(br, buf)
		if rerr != nil {
			return rerr
		}
		buf = payload
		if derr := wire.DecodeReplFrame(payload, &fr); derr != nil {
			return derr
		}
		switch fr.Kind {
		case wire.ReplBatch, wire.ReplSnapshot:
			if fr.Epoch < f.epoch.Load() {
				return errStaleEpoch
			}
			f.epoch.Store(fr.Epoch)
			f.cfg.Crash.Check(CrashPointApplyBefore)
			start := time.Now()
			applied, aerr := f.eng.ApplyReplicated(fr.Raw)
			if aerr != nil {
				return aerr
			}
			if f.applyHist != nil {
				f.applyHist.Since(start)
			}
			f.cfg.Crash.Check(CrashPointApplyAfter)
			ack, aerr = wire.AppendReplFrame(wire.StartFrame(ack), &wire.ReplFrame{
				Kind: wire.ReplAck, Epoch: fr.Epoch, AckLSN: applied,
			})
			if aerr != nil {
				return aerr
			}
			if werr := wire.WriteFrame(conn, ack); werr != nil {
				return werr
			}
		default:
			return &wire.Error{Code: wire.CodeBadRequest, Msg: "unexpected frame on replication stream"}
		}
	}
}
