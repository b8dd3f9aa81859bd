package repl

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

// balances returns accounts as pk -> bal.
func balances(t *testing.T, eng *engine.Engine) map[int64]int64 {
	t.Helper()
	txn := eng.Begin(engine.IsolationDefault)
	defer txn.Rollback()
	rows, err := txn.Select("accounts", storage.All{})
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	sc := eng.Schema("accounts")
	out := make(map[int64]int64, len(rows))
	for _, r := range rows {
		out[r.Get(sc, "id").(int64)] = r.Get(sc, "bal").(int64)
	}
	return out
}

// syncGate stands between a leader's and a follower's WAL devices. It counts
// the leader's fsync batches and holds each follower fsync until the leader
// has fsynced two more, so batches pile up in the leader's ship queue behind
// the frame out at the follower — a follower slower than its leader, with no
// timer in it. It opens early once every live writer is parked on an ack,
// because then no further leader batch can form.
type syncGate struct {
	mu   sync.Mutex
	cond sync.Cond

	leaderSyncs   int // leader fsync batches
	leaderStaged  int // records staged on the leader, not yet fsynced
	leaderDurable int // records the leader has fsynced
	folStaged     int // records staged on the follower, not yet fsynced
	folSynced     int // records the follower has fsynced
	live          int // writers still committing
}

func newSyncGate(writers int) *syncGate {
	g := &syncGate{live: writers}
	g.cond.L = &g.mu
	return g
}

// records counts the whole records in p.
func records(p []byte) int {
	recs, _ := wal.Records(p)
	return len(recs)
}

// writerDone retires one writer from the parked-writers count.
func (g *syncGate) writerDone() {
	g.mu.Lock()
	g.live--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// gateLeader is the leader's wal.Device.
type gateLeader struct{ g *syncGate }

func (d gateLeader) Append(p []byte) error {
	d.g.mu.Lock()
	d.g.leaderStaged += records(p)
	d.g.mu.Unlock()
	return nil
}

func (d gateLeader) Sync() error {
	d.g.mu.Lock()
	d.g.leaderDurable += d.g.leaderStaged
	d.g.leaderStaged = 0
	d.g.leaderSyncs++
	d.g.cond.Broadcast()
	d.g.mu.Unlock()
	return nil
}

// gateFollower is the follower's wal.Device.
type gateFollower struct{ g *syncGate }

func (d gateFollower) Append(p []byte) error {
	d.g.mu.Lock()
	d.g.folStaged += records(p)
	d.g.mu.Unlock()
	return nil
}

func (d gateFollower) Sync() error {
	g := d.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.folStaged == 0 {
		return nil
	}
	// Records the leader holds durable and the follower has not synced
	// belong to writers waiting for an ack, one record each.
	until := g.leaderSyncs + 2
	for g.leaderSyncs < until && g.leaderDurable-g.folSynced < g.live {
		g.cond.Wait()
	}
	g.folSynced += g.folStaged
	g.folStaged = 0
	return nil
}

// TestPipelinedSemiSync: 8 writers against a strict semi-sync leader whose
// follower fsyncs only after the leader has fsynced two more batches. The
// leader keeps fsyncing while a frame is out, so some shipper call must
// carry more than one fsync batch; every commit still waits for the
// follower, which ends up equal to the leader row for row.
func TestPipelinedSemiSync(t *testing.T) {
	const writers, each = 8, 25
	g := newSyncGate(writers)
	le := newEngineWith(engine.Config{GroupCommit: true, WALDevice: gateLeader{g}})
	fe := newEngineWith(engine.Config{WALDevice: gateFollower{g}})
	l := startLeader(t, le, LeaderConfig{Quorum: SemiSync})
	var calls atomic.Int64
	le.WAL().SetShipper(func(raw []byte, first, last uint64) {
		calls.Add(1)
		l.Ship(raw, first, last)
	})
	f := startFollower(t, fe, FollowerConfig{LeaderAddr: l.Addr()})
	waitUntil(t, "subscription", func() bool { return len(l.FollowerAcks()) == 1 })

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			defer g.writerDone()
			for i := int64(0); i < each; i++ {
				txn := le.Begin(engine.IsolationDefault)
				if _, err := txn.Insert("accounts", map[string]storage.Value{"bal": w*1000 + i}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := txn.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if got, want := f.AppliedLSN(), txn.CommitLSN(); got < want {
					t.Errorf("commit at LSN %d acknowledged with the follower at %d", want, got)
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if got, want := balances(t, fe), balances(t, le); len(want) != writers*each || !reflect.DeepEqual(got, want) {
		t.Fatalf("follower has %d rows, leader %d (want %d), or they differ", len(got), len(want), writers*each)
	}
	if d := l.Degrades(); d != 0 {
		t.Fatalf("strict semi-sync degraded %d times", d)
	}
	// Each fsync batch is shipped exactly once, so fewer calls than fsyncs
	// means a call covered several batches.
	if c, fs := calls.Load(), le.WAL().FsyncCount(); c >= fs {
		t.Fatalf("%d shipper calls for %d fsync batches: no call carried more than one", c, fs)
	}
}

// TestLeaderCloseReleasesShipQueue: commits parked behind a strict semi-sync
// quorum that will never form — one inside Ship, the rest queued behind it —
// all return when the leader closes.
func TestLeaderCloseReleasesShipQueue(t *testing.T) {
	const n = 4
	le := newEngine(t, nil, true)
	l := startLeader(t, le, LeaderConfig{Quorum: SemiSync})
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(i int64) {
			commitRow(t, le, i)
			done <- struct{}{}
		}(int64(i))
	}
	// Group commit fsyncs all four (in one batch or several) without waiting
	// for the ship stage; none can be acknowledged.
	waitUntil(t, "local durability", func() bool { return le.AppliedLSN() == n })
	select {
	case <-done:
		t.Fatal("a strict semi-sync commit returned with no follower")
	case <-time.After(20 * time.Millisecond):
	}
	l.Close()
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d parked commits still stuck after Close", n-i, n)
		}
	}
}

// heldDevice is a wal.Device whose Sync can be made to wait.
type heldDevice struct {
	mu   sync.Mutex
	hold chan struct{}
}

func (d *heldDevice) Append([]byte) error { return nil }
func (d *heldDevice) Sync() error {
	d.mu.Lock()
	hold := d.hold
	d.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return nil
}

// TestCatchUpStopsAtDurableFrontier: a follower subscribing while the leader
// is inside an fsync gets a snapshot of durable records only. The batch in
// flight is in the leader's log image already, but the leader could still
// lose it; it reaches the follower through Ship once it is durable.
func TestCatchUpStopsAtDurableFrontier(t *testing.T) {
	dev := &heldDevice{}
	le := newEngineWith(engine.Config{GroupCommit: true, WALDevice: dev})
	fe := newEngine(t, nil, false)
	l := startLeader(t, le, LeaderConfig{Quorum: Async})
	for i := 0; i < 3; i++ {
		commitRow(t, le, int64(i))
	}

	hold := make(chan struct{})
	dev.mu.Lock()
	dev.hold = hold
	dev.mu.Unlock()
	committed := make(chan struct{})
	go func() {
		commitRow(t, le, 3)
		close(committed)
	}()
	waitUntil(t, "the fourth record to be staged", func() bool {
		recs, err := wal.Records(le.WALBytes())
		return err == nil && len(recs) == 4
	})

	f := startFollower(t, fe, FollowerConfig{LeaderAddr: l.Addr()})
	waitUntil(t, "catch-up", func() bool { return f.AppliedLSN() >= 3 })
	for end := time.Now().Add(30 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if got, durable := f.AppliedLSN(), le.AppliedLSN(); got > durable {
			t.Fatalf("follower holds LSN %d, leader's durable frontier is %d", got, durable)
		}
	}

	dev.mu.Lock()
	dev.hold = nil
	dev.mu.Unlock()
	close(hold)
	<-committed
	waitUntil(t, "the live stream", func() bool { return f.AppliedLSN() == 4 })
}

// TestFollowerRefusesGapAndCatchesUp: a frame that skips LSNs makes the
// follower drop the stream and re-subscribe; catch-up then delivers the
// records the frame skipped. Before the contiguity check the follower
// applied the frame, acked it, and kept the hole for good.
func TestFollowerRefusesGapAndCatchesUp(t *testing.T) {
	le := newEngine(t, nil, false)
	fe := newEngine(t, nil, false)
	l := startLeader(t, le, LeaderConfig{Quorum: Async})
	f := startFollower(t, fe, FollowerConfig{LeaderAddr: l.Addr(), RetryInterval: time.Millisecond})
	for i := 0; i < 3; i++ {
		commitRow(t, le, int64(i))
	}
	waitUntil(t, "first sync", func() bool { return f.AppliedLSN() == 3 })

	// Commit LSN 4 and 5 behind the leader's back, then ship only 5.
	le.WAL().SetShipper(nil)
	commitRow(t, le, 3)
	commitRow(t, le, 4)
	raw, first, last, err := wal.SliceFrom(le.WALBytes(), 4)
	if err != nil || first != 5 || last != 5 {
		t.Fatalf("SliceFrom: LSN %d..%d, err %v", first, last, err)
	}
	l.Ship(raw, first, last)

	waitUntil(t, "re-subscription", func() bool { return f.AppliedLSN() == 5 })
	if got, want := balances(t, fe), balances(t, le); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower rows %v, leader rows %v", got, want)
	}
}
