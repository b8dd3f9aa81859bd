package wal

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhoctx/internal/obs"
	"adhoctx/internal/sim"
)

// TestShipperContract pins what SetShipper promises for both commit paths
// under concurrent writers: calls never overlap, each starts at the LSN after
// the previous one ended, the bytes decode to exactly the announced records,
// and nothing above the durable frontier is ever handed out. Per-commit mode
// failed this before the ship stage existed: every committer called the hook
// itself after a racy sync, so calls arrived out of LSN order.
func TestShipperContract(t *testing.T) {
	const writers, each = 8, 1500
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			l := NewWithOptions(Options{GroupCommit: group})
			var (
				inHook atomic.Int32
				next   = uint64(1)
				calls  int
			)
			l.SetShipper(func(raw []byte, first, last uint64) {
				if inHook.Add(1) != 1 {
					t.Errorf("shipper called concurrently")
				}
				defer inHook.Add(-1)
				calls++ // serial by contract; the race detector checks it too
				if first != next || last < first {
					t.Errorf("call %d covers LSN %d..%d, want it to start at %d", calls, first, last, next)
				}
				if d := l.DurableLSN(); last > d {
					t.Errorf("call %d ships up to LSN %d, durable frontier is %d", calls, last, d)
				}
				recs, err := Records(raw)
				if err != nil || uint64(len(recs)) != last-first+1 {
					t.Errorf("call %d: %d records (err %v) for LSN %d..%d", calls, len(recs), err, first, last)
				}
				for i, r := range recs {
					if r.LSN != first+uint64(i) {
						t.Errorf("call %d: record %d has LSN %d, want %d", calls, i, r.LSN, first+uint64(i))
					}
				}
				next = last + 1
			})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(txn uint64) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if _, err := l.Append(txn, sampleOps()); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			// Every Append returned, so every call has too.
			if next != writers*each+1 {
				t.Fatalf("shipped through LSN %d, want %d", next-1, writers*each)
			}
		})
	}
}

// TestShipStageMetrics: the coalescing histogram and the queue-depth gauge
// move with the ship stage and the gauge drains back to zero.
func TestShipStageMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewWithOptions(Options{GroupCommit: true})
	l.WireObs(reg)
	var depth atomic.Int64
	l.SetShipper(func([]byte, uint64, uint64) {
		depth.Store(reg.Gauge("wal_ship_queue_batches").Value())
	})
	if _, failed := gcAppend(t, l, 8); len(failed) != 0 {
		t.Fatalf("failed appends: %v", failed)
	}
	h := reg.Histogram("wal_ship_batch_records").Snapshot()
	if h.Count == 0 || h.Sum != 8 {
		t.Fatalf("wal_ship_batch_records: %d calls covering %d records, want 8 records", h.Count, h.Sum)
	}
	if depth.Load() < 1 {
		t.Fatalf("wal_ship_queue_batches = %d inside a shipper call, want >= 1", depth.Load())
	}
	if g := reg.Gauge("wal_ship_queue_batches").Value(); g != 0 {
		t.Fatalf("wal_ship_queue_batches = %d with nothing queued", g)
	}
}

// gateDevice is a fakeDevice whose Sync can be held: while hold is set, each
// Sync announces itself on syncing and waits for hold to be closed.
type gateDevice struct {
	fakeDevice
	gate    sync.Mutex
	hold    chan struct{}
	syncing chan struct{}
}

func (d *gateDevice) Sync() error {
	d.gate.Lock()
	hold := d.hold
	d.gate.Unlock()
	if hold != nil {
		d.syncing <- struct{}{}
		<-hold
	}
	return d.fakeDevice.Sync()
}

func (d *gateDevice) holdSyncs() (release func()) {
	hold := make(chan struct{})
	d.gate.Lock()
	d.hold = hold
	d.gate.Unlock()
	return func() {
		d.gate.Lock()
		d.hold = nil
		d.gate.Unlock()
		close(hold)
	}
}

// shipRig is a group-commit log (batches of exactly two records) over a
// gateable device with a shipper that plays a strict semi-sync follower: each
// call announces itself, waits for a permit, and only then "holds" the bytes.
type shipRig struct {
	t    *testing.T
	plan *sim.CrashPlan
	dev  *gateDevice
	log  *Log

	entered chan uint64   // a call's last LSN, on entry
	permit  chan struct{} // one receive per call before it returns
	results chan error    // one per Append started by pair

	mu       sync.Mutex
	follower []byte
}

func newShipRig(t *testing.T) *shipRig {
	r := &shipRig{
		t:       t,
		plan:    &sim.CrashPlan{},
		dev:     &gateDevice{syncing: make(chan struct{}, 1)},
		entered: make(chan uint64, 16),   // never blocks a call: fewer calls than this per test
		permit:  make(chan struct{}, 16), // likewise for the test's sends
		results: make(chan error, 16),    // likewise for the appenders
	}
	r.log = NewWithOptions(Options{
		GroupCommit: true, MaxBatch: 2, MaxWait: time.Minute,
		Device: r.dev, Crash: r.plan,
	})
	r.log.SetShipper(func(raw []byte, first, last uint64) {
		if d := r.log.DurableLSN(); last > d {
			t.Errorf("shipping LSN %d above the durable frontier %d", last, d)
		}
		r.entered <- last
		<-r.permit
		r.mu.Lock()
		r.follower = append(r.follower, raw...)
		r.mu.Unlock()
	})
	return r
}

// pair starts two concurrent Appends, which MaxBatch 2 makes one batch. Call
// it only once the previous pair is fully enqueued: it first drops the
// batch-full token a leader leaves behind when it finds its batch already
// full, which would otherwise cut this pair's window short at one record.
func (r *shipRig) pair() {
	select {
	case <-r.log.full:
	default:
	}
	for i := 0; i < 2; i++ {
		go func() {
			_, err := r.log.Append(1, sampleOps())
			r.results <- err
		}()
	}
}

// expect waits for the next acked+crashed Append results, in any order:
// acked acknowledgements and crashed crash errors.
func (r *shipRig) expect(acked, crashed int, what string) {
	r.t.Helper()
	for acked+crashed > 0 {
		select {
		case err := <-r.results:
			switch {
			case err == nil:
				acked--
			case sim.IsCrash(err):
				crashed--
			default:
				r.t.Fatalf("%s: Append returned %v", what, err)
			}
			if acked < 0 || crashed < 0 {
				r.t.Fatalf("%s: Append returned %v, want %d more acks and %d more crash errors", what, err, acked, crashed)
			}
		case <-time.After(5 * time.Second):
			r.t.Fatalf("%s: %d Appends never returned", what, acked+crashed)
		}
	}
}

func (r *shipRig) expectCall(last uint64, what string) {
	r.t.Helper()
	select {
	case got := <-r.entered:
		if got != last {
			r.t.Fatalf("%s: shipper call ends at LSN %d, want %d", what, got, last)
		}
	case <-time.After(5 * time.Second):
		r.t.Fatalf("%s: no shipper call", what)
	}
}

func (r *shipRig) lsns(raw []byte) []uint64 {
	r.t.Helper()
	recs, err := Records(raw)
	if err != nil {
		r.t.Fatal(err)
	}
	out := make([]uint64, len(recs))
	for i, rec := range recs {
		out[i] = rec.LSN
	}
	return out
}

// checkImages compares the durable device image against LSN 1..durable and
// what the follower holds against held.
func (r *shipRig) checkImages(durable uint64, held []uint64) {
	r.t.Helper()
	if got := r.lsns(r.dev.durable()); !slices.Equal(got, seq(1, durable)) {
		r.t.Fatalf("durable image holds LSNs %v, want exactly 1..%d", got, durable)
	}
	r.mu.Lock()
	fol := append([]byte(nil), r.follower...)
	r.mu.Unlock()
	if got := r.lsns(fol); !slices.Equal(got, held) {
		r.t.Fatalf("follower holds LSNs %v, want %v", got, held)
	}
}

// seq returns the LSNs first..last.
func seq(first, last uint64) []uint64 {
	var out []uint64
	for lsn := first; lsn <= last; lsn++ {
		out = append(out, lsn)
	}
	return out
}

// checkPoisonedThenRecovers: the log refuses Appends until Recover, then
// continues at nextLSN — right after the durable image, whatever LSNs the
// crash burned — with the ship stage working again.
func (r *shipRig) checkPoisonedThenRecovers(nextLSN uint64) {
	r.t.Helper()
	if _, err := r.log.Append(1, sampleOps()); !sim.IsCrash(err) {
		r.t.Fatalf("Append on the poisoned log returned %v, want the crash error", err)
	}
	select {
	case err := <-r.results:
		r.t.Fatalf("an Append returned %v after the crash", err)
	case last := <-r.entered:
		r.t.Fatalf("a shipper call (through LSN %d) started after the crash", last)
	case <-time.After(20 * time.Millisecond):
	}
	r.log.Recover()
	r.pair()
	r.expectCall(nextLSN+1, "after Recover")
	r.permit <- struct{}{}
	r.expect(2, 0, "after Recover")
}

// TestCrashWithBothStagesBusy fires each of the four WAL crash points while
// one batch is in the ship stage and another in the fsync stage. Whichever
// stage dies, every unacknowledged Append in both gets the crash error,
// nothing is acknowledged afterwards, the durable image holds whole batches
// only, and the follower never holds what the leader has not made durable.
func TestCrashWithBothStagesBusy(t *testing.T) {
	// The fsync stage dies with batch A out on the wire.
	for _, tc := range []struct {
		point   string
		durable uint64 // records in the durable image afterwards
	}{
		{CrashPointBeforeFsync, 2}, // B never reached the device
		{CrashPointAfterFsync, 4},  // B is whole on the device, unacknowledged
	} {
		t.Run(tc.point, func(t *testing.T) {
			r := newShipRig(t)
			r.pair() // A = LSN 1..2
			r.expectCall(2, "batch A")
			r.plan.Arm(tc.point, 1)
			r.pair() // B = LSN 3..4 dies in the fsync stage
			// A's members fail at once, not when the follower answers.
			r.expect(0, 4, "A (shipping) and B (fsyncing)")
			r.permit <- struct{}{} // the follower's late answer acknowledges nobody
			r.checkPoisonedThenRecovers(tc.durable + 1)
			// The follower has A and the batch appended after Recover; a B that
			// was durable but unshipped is catch-up's to deliver.
			r.checkImages(tc.durable+2, append(seq(1, 2), seq(tc.durable+1, tc.durable+2)...))
		})
	}

	// The ship stage dies on batch B with batch C inside its fsync.
	for _, tc := range []struct {
		point string
		nth   int
		held  uint64 // records the follower holds afterwards
	}{
		{CrashPointShipBefore, 1, 2}, // A's round already passed this point
		{CrashPointShipAfter, 2, 4},  // A's round passes it once more
	} {
		t.Run(tc.point, func(t *testing.T) {
			r := newShipRig(t)
			r.pair() // A = LSN 1..2, held in the shipper
			r.expectCall(2, "batch A")
			r.pair() // B = LSN 3..4, fsynced and queued behind A
			waitDurable(t, r.log, 4)
			release := r.dev.holdSyncs()
			r.pair() // C = LSN 5..6, held inside its fsync
			select {
			case <-r.dev.syncing:
			case <-time.After(5 * time.Second):
				t.Fatal("batch C never reached its fsync")
			}
			r.plan.Arm(tc.point, tc.nth)
			r.permit <- struct{}{} // A's call returns: A is acknowledged
			if tc.point == CrashPointShipAfter {
				r.expectCall(4, "batch B")
				r.permit <- struct{}{}
			}
			r.expect(2, 2, "A (acknowledged) and B (shipping)")
			r.checkImages(4, seq(1, tc.held))
			release()
			r.expect(0, 2, "batch C (fsyncing)")
			r.checkImages(6, seq(1, tc.held))
			r.checkPoisonedThenRecovers(7)
		})
	}
}

func waitDurable(t *testing.T, l *Log, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.DurableLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("durable frontier stuck at %d, want %d", l.DurableLSN(), lsn)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestUninstallReleasesShipQueue: uninstalling the hook with a batch queued
// behind a running call acknowledges that batch without another call.
func TestUninstallReleasesShipQueue(t *testing.T) {
	r := newShipRig(t)
	r.pair() // A, held in the shipper
	r.expectCall(2, "batch A")
	r.pair() // B, fsynced and queued behind A
	waitDurable(t, r.log, 4)
	r.log.SetShipper(nil)
	r.permit <- struct{}{}
	r.expect(4, 0, "A (shipped) and B (released)")
	select {
	case last := <-r.entered:
		t.Fatalf("shipper called through LSN %d after it was uninstalled", last)
	default:
	}
	r.checkImages(4, seq(1, 2))
}
