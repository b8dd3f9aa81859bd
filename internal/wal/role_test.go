package wal

import (
	"slices"
	"testing"
	"time"

	"adhoctx/internal/obs"
	"adhoctx/internal/sim"
)

// stepDevice is a fakeDevice whose every Sync parks until the test lets it
// finish: the Sync announces itself by sending its release channel on syncs,
// and completes once that channel is closed.
type stepDevice struct {
	fakeDevice
	syncs chan chan struct{}
}

func newStepDevice() *stepDevice { return &stepDevice{syncs: make(chan chan struct{})} }

func (d *stepDevice) Sync() error {
	release := make(chan struct{})
	d.syncs <- release
	<-release
	return d.fakeDevice.Sync()
}

// nextSync waits for the next Sync to reach the device and returns its
// release channel.
func (d *stepDevice) nextSync(t *testing.T, what string) chan struct{} {
	t.Helper()
	select {
	case release := <-d.syncs:
		return release
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no Sync reached the device", what)
		return nil
	}
}

// goAppend starts one Append and returns the channel its error arrives on.
func goAppend(l *Log) chan error {
	res := make(chan error, 1)
	go func() {
		_, err := l.Append(1, sampleOps())
		res <- err
	}()
	return res
}

// waitResult waits for one Append's outcome: an acknowledgement, or (crashed)
// the *sim.CrashError.
func waitResult(t *testing.T, res chan error, crashed bool, what string) {
	t.Helper()
	select {
	case err := <-res:
		if crashed && !sim.IsCrash(err) {
			t.Fatalf("%s: Append returned %v, want the crash error", what, err)
		}
		if !crashed && err != nil {
			t.Fatalf("%s: Append returned %v, want an acknowledgement", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Append never returned", what)
	}
}

// waitLocked polls cond under l.mu until it holds.
func waitLocked(t *testing.T, l *Log, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func waitPending(t *testing.T, l *Log, n int) {
	t.Helper()
	waitLocked(t, l, "pending appends", func() bool { return len(l.pending) == n })
}

// TestGroupCommitWaitsForOwnBatchOnly: a committer that flushed its batch
// returns as soon as that batch is durable, even though a record queued
// behind it is still waiting for its own fsync. Before the flush role was
// handed on, the first committer flushed B's batch too before returning.
func TestGroupCommitWaitsForOwnBatchOnly(t *testing.T) {
	dev := newStepDevice()
	l := NewWithOptions(Options{GroupCommit: true, Device: dev})
	a := goAppend(l)
	releaseA := dev.nextSync(t, "A")
	b := goAppend(l)
	waitPending(t, l, 1)
	close(releaseA)
	waitResult(t, a, false, "A, with B's fsync not yet released")
	releaseB := dev.nextSync(t, "B")
	select {
	case err := <-b:
		t.Fatalf("B returned %v before its fsync completed", err)
	default:
	}
	close(releaseB)
	waitResult(t, b, false, "B")
	if got := l.FsyncCount(); got != 2 {
		t.Fatalf("FsyncCount = %d, want 2", got)
	}
}

// slowDevice is a fakeDevice whose Sync takes d.
type slowDevice struct {
	fakeDevice
	d time.Duration
}

func (s *slowDevice) Sync() error {
	time.Sleep(s.d)
	return s.fakeDevice.Sync()
}

// TestGroupCommitBatchesUnderLoad: with the role handed on, batching still
// comes from backpressure. 32 appenders on a slow device share fsyncs, and
// the device receives the records in LSN order.
func TestGroupCommitBatchesUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	dev := &slowDevice{d: time.Millisecond}
	l := NewWithOptions(Options{GroupCommit: true, Device: dev})
	l.WireObs(reg)
	const n = 32
	acked, failed := gcAppend(t, l, n)
	if len(failed) != 0 || len(acked) != n {
		t.Fatalf("acked %d, failed %v", len(acked), failed)
	}
	h := reg.Histogram("wal_group_commit_batch_size").Snapshot()
	if h.Sum != n || h.Count == 0 {
		t.Fatalf("wal_group_commit_batch_size: %d batches covering %d records, want %d records", h.Count, h.Sum, n)
	}
	if mean := float64(h.Sum) / float64(h.Count); mean <= 1 {
		t.Fatalf("mean batch size %.2f over %d batches: no batching happened", mean, h.Count)
	}
	image := dev.durable()
	if string(image) != string(l.Bytes()) {
		t.Fatal("device image differs from the log image")
	}
	recs, err := Records(image)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("device record %d has LSN %d: device order is not LSN order", i, r.LSN)
		}
	}
	if len(recs) != n {
		t.Fatalf("device holds %d records, want %d", len(recs), n)
	}
}

// roleRig drives the flush-role hand-off one step at a time: a group-commit
// log (one record per batch) over a stepDevice, a shipper that announces
// each call and waits for a permit, and the parked seam, which stops the
// Append of LSN holdLSN before it waits, so a role handed to it stays in
// transit until the test resumes it.
type roleRig struct {
	t    *testing.T
	plan *sim.CrashPlan
	dev  *stepDevice
	log  *Log

	entered chan uint64   // a shipper call's last LSN, on entry
	permit  chan struct{} // one receive per shipper call before it returns
	stopped chan struct{} // the held Append reached the seam
	resume  chan struct{} // lets it go on
	held    chan struct{} // release channel of a Sync the test is holding
}

const holdLSN = 3

func newRoleRig(t *testing.T) *roleRig {
	r := &roleRig{
		t:       t,
		plan:    &sim.CrashPlan{},
		dev:     newStepDevice(),
		entered: make(chan uint64, 8),
		permit:  make(chan struct{}, 8),
		stopped: make(chan struct{}, 1),
		resume:  make(chan struct{}),
	}
	r.log = NewWithOptions(Options{GroupCommit: true, MaxBatch: 1, Device: r.dev, Crash: r.plan})
	r.log.parked = func(lsn uint64) {
		if lsn == holdLSN {
			r.stopped <- struct{}{}
			<-r.resume
		}
	}
	r.log.SetShipper(func(_ []byte, _, last uint64) {
		r.entered <- last
		<-r.permit
	})
	return r
}

func (r *roleRig) expectCall(last uint64, what string) {
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

func (r *roleRig) expectStopped(what string) {
	r.t.Helper()
	select {
	case <-r.stopped:
	case <-time.After(5 * time.Second):
		r.t.Fatalf("%s: never reached the seam", what)
	}
}

// checkQuiet: once every Append has returned, nothing holds the flush role
// or runs the ship stage, and nothing is queued in either stage.
func (r *roleRig) checkQuiet() {
	r.t.Helper()
	waitLocked(r.t, r.log, "the log to go quiet", func() bool {
		return !r.log.flushing && !r.log.shipping &&
			len(r.log.pending) == 0 && len(r.log.shipQ) == 0 && len(r.log.inflight) == 0
	})
}

// checkRecovers: after Recover the next Append is acknowledged at
// durable+1, and the device and log images both hold LSNs 1..durable+1.
func (r *roleRig) checkRecovers(durable uint64) {
	r.t.Helper()
	if got := r.log.DurableLSN(); got != durable {
		r.t.Fatalf("durable frontier %d after the crash, want %d", got, durable)
	}
	r.log.Recover()
	d := goAppend(r.log)
	close(r.dev.nextSync(r.t, "after Recover"))
	r.expectCall(durable+1, "after Recover")
	r.permit <- struct{}{}
	waitResult(r.t, d, false, "after Recover")
	want := seq(1, durable+1)
	for name, raw := range map[string][]byte{"device": r.dev.durable(), "log": r.log.Bytes()} {
		recs, err := Records(raw)
		if err != nil {
			r.t.Fatalf("%s image: %v", name, err)
		}
		got := make([]uint64, len(recs))
		for i, rec := range recs {
			got[i] = rec.LSN
		}
		if !slices.Equal(got, want) {
			r.t.Fatalf("%s image holds LSNs %v, want %v", name, got, want)
		}
	}
	r.checkQuiet()
}

// TestCrashWithRoleHandedOn fires each crash point while the flush role is
// in transit (handed to the next holder, not yet received) or inside the
// batch of a holder it was handed to. Four Appends, one record per batch:
// Z (LSN 1) is on the wire and acknowledged before the crash; A (LSN 2)
// fsynced and handed the role to B (LSN 3); C (LSN 4) queued behind B.
// Whichever point fires, A, B and C get the crash error, nothing is left
// holding the role or parked in either stage, and the log recovers
// gaplessly. fire runs the steps up to the crash, after the ones that let
// what the crash caught finish. In transit, B wakes to both the role and
// its crash error at once and may see either first: -count=20 covers both.
func TestCrashWithRoleHandedOn(t *testing.T) {
	inTransit := func(r *roleRig) { r.resume <- struct{}{} }  // B gives the role up
	lateAnswer := func(r *roleRig) { r.permit <- struct{}{} } // A's call acks nobody
	releaseB := func(r *roleRig) { close(r.held) }            // B's fsync finishes
	for _, tc := range []struct {
		where   string
		point   string
		nth     int
		durable uint64 // the durable frontier after the crash
		fire    func(r *roleRig)
		after   func(r *roleRig)
	}{
		{"in-transit", CrashPointShipBefore, 1, 2, func(r *roleRig) {
			r.permit <- struct{}{} // Z's call returns; A's round dies entering the shipper
		}, inTransit},
		{"in-transit", CrashPointShipAfter, 2, 2, func(r *roleRig) {
			r.permit <- struct{}{} // Z's call returns, passing the point once
			r.expectCall(2, "A")
			r.permit <- struct{}{} // A's call returns and dies
		}, inTransit},
		{"in-batch", CrashPointBeforeFsync, 1, 2, func(r *roleRig) {
			r.permit <- struct{}{}
			r.expectCall(2, "A") // A on the wire
			r.resume <- struct{}{}
		}, lateAnswer},
		{"in-batch", CrashPointAfterFsync, 1, 3, func(r *roleRig) {
			r.permit <- struct{}{}
			r.expectCall(2, "A")
			r.resume <- struct{}{}
			close(r.dev.nextSync(r.t, "B"))
		}, lateAnswer},
		{"in-batch", CrashPointShipBefore, 1, 3, func(r *roleRig) {
			r.resume <- struct{}{}
			r.held = r.dev.nextSync(r.t, "B") // B inside its fsync
			r.permit <- struct{}{}            // Z's call returns; A's round dies
		}, releaseB},
		{"in-batch", CrashPointShipAfter, 2, 3, func(r *roleRig) {
			r.resume <- struct{}{}
			r.held = r.dev.nextSync(r.t, "B")
			r.permit <- struct{}{}
			r.expectCall(2, "A")
			r.permit <- struct{}{} // A's call returns and dies
		}, releaseB},
	} {
		t.Run(tc.where+"/"+tc.point, func(t *testing.T) {
			r := newRoleRig(t)
			z := goAppend(r.log)
			close(r.dev.nextSync(t, "Z"))
			r.expectCall(1, "Z")
			waitLocked(t, r.log, "Z's turn to end", func() bool { return !r.log.flushing })

			a := goAppend(r.log) // finds no flush running: takes the role
			releaseA := r.dev.nextSync(t, "A")
			b := goAppend(r.log)
			r.expectStopped("B") // queued behind A, stopped before it waits
			close(releaseA)      // A queues for the ship stage and hands the role to B
			waitLocked(t, r.log, "the role to reach B", func() bool {
				return len(r.log.pending) == 1 && len(r.log.pending[0].role) == 1
			})
			c := goAppend(r.log)
			waitPending(t, r.log, 2)
			r.plan.Arm(tc.point, tc.nth)

			tc.fire(r)
			waitLocked(t, r.log, "the crash", func() bool { return r.log.crashErr != nil })
			tc.after(r)
			waitResult(t, z, false, "Z")
			waitResult(t, a, true, "A")
			waitResult(t, b, true, "B")
			waitResult(t, c, true, "C")
			if fired := r.plan.Fired(); len(fired) != 1 || fired[0] != tc.point {
				t.Fatalf("crash points fired: %v, want [%s]", fired, tc.point)
			}
			r.checkQuiet()
			r.checkRecovers(tc.durable)
		})
	}
}
