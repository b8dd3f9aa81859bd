package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/obs"
)

// warmUp runs before every measured interval and is excluded from it: the
// pool is already dialled, so this only lets the heap and the scheduler
// settle.
const warmUp = 500 * time.Millisecond

// minCommitted is the fewest committed transactions a window may report a
// p99 from (at least ten samples beyond it).
const minCommitted = 1000

// checkpointEvery is the background checkpoint period inside a window: the
// same policy in every window, at least three cycles in each.
func checkpointEvery(measure time.Duration) time.Duration {
	return min(2*time.Second, measure/4)
}

// txnSample is one logical transaction as its client saw it, retries and
// backoff included. Times are nanoseconds since the window's base.
type txnSample struct {
	start, end int64
	ok         bool
}

// driver is one closed-loop client goroutine.
type driver struct {
	gen      *generator
	run      func(p plan, d *driver) error
	rec      *clientRecorder // nil when untraced
	samples  []txnSample
	attempts int64
	lastLSN  uint64 // highest commit LSN acknowledged to this client
	firstErr error
}

// fleet is the closed-loop clients of one window and what they share.
type fleet struct {
	drivers           []*driver
	base              time.Time    // sample times count from here
	gate              sync.RWMutex // held shared around every transaction
	stop              atomic.Bool
	committed, failed atomic.Int64
	wg                sync.WaitGroup
}

// launch starts one goroutine per driver, each running transactions back to
// back until halt.
func launch(drivers []*driver) *fleet {
	f := &fleet{drivers: drivers, base: time.Now()}
	for _, d := range drivers {
		f.wg.Add(1)
		go func(d *driver) {
			defer f.wg.Done()
			d.loop(f)
		}(d)
	}
	return f
}

// halt stops the clients after their current transaction and waits for them.
func (f *fleet) halt() {
	f.stop.Store(true)
	f.wg.Wait()
}

// quiet runs fn with no transaction in flight.
func (f *fleet) quiet(fn func()) {
	f.gate.Lock()
	defer f.gate.Unlock()
	fn()
}

// within returns the latencies of the transactions that committed inside
// [from, to] and how many were attempted and failed there. A failed
// transaction contributes no latency sample.
func (f *fleet) within(from, to time.Duration) (lat []int64, attempted, failed int64) {
	for _, d := range f.drivers {
		for _, s := range d.samples {
			if s.start < int64(from) || s.end > int64(to) {
				continue
			}
			attempted++
			if s.ok {
				lat = append(lat, s.end-s.start)
			} else {
				failed++
			}
		}
	}
	return lat, attempted, failed
}

// firstErr returns the first transaction error any client saw, or nil.
func (f *fleet) firstErr() error {
	for _, d := range f.drivers {
		if d.firstErr != nil {
			return d.firstErr
		}
	}
	return nil
}

func (d *driver) loop(f *fleet) {
	for !f.stop.Load() {
		f.gate.RLock()
		p := d.gen.next()
		start := time.Since(f.base)
		err := d.run(p, d)
		end := time.Since(f.base)
		if err == nil {
			f.committed.Add(1)
		} else {
			f.failed.Add(1)
			if d.firstErr == nil {
				d.firstErr = fmt.Errorf("client %d %s: %w", d.gen.client, p, err)
			}
		}
		d.samples = append(d.samples, txnSample{start: int64(start), end: int64(end), ok: err == nil})
		f.gate.RUnlock()
	}
}

// runRemote executes p through the pooled client's own retry loop and, when
// traced, records where the client-side time went: begin is RunTxnWith entry
// to the first callback entry, commit is the last callback return to
// RunTxnWith return, and a retry gap (failed commit, backoff, next BEGIN) is
// one callback's return to the next one's entry.
func runRemote(cl *client.Client) func(plan, *driver) error {
	return func(p plan, d *driver) error {
		rec := d.rec
		var attempts int32
		var last *client.Txn
		start := rec.now()
		mark := start
		err := cl.RunTxnWith(engine.IsolationDefault, p.beginOpts(), func(t *client.Txn) error {
			kind := callBegin
			if attempts > 0 {
				kind = callRetryGap
			}
			rec.span(kind, mark, rec.now())
			attempts++
			last = t
			err := p.run(remoteTxn{t: t, rec: rec})
			mark = rec.now()
			return err
		})
		end := rec.now()
		d.attempts += int64(attempts)
		if err == nil {
			rec.span(callCommit, mark, end)
			d.lastLSN = max(d.lastLSN, last.CommitLSN())
		}
		if rec != nil {
			rec.txns = append(rec.txns, txnRec{seq: rec.seq, start: start, end: end})
			rec.seq++
		}
		return err
	}
}

// runLocal executes p straight against the engine: the peel.
func runLocal(eng *engine.Engine) func(plan, *driver) error {
	return func(p plan, d *driver) error {
		return eng.RunModeWithRetry(p.mode(), engine.IsolationDefault, 10, func(t *engine.Txn) error {
			return p.run(localTxn{t})
		})
	}
}

// counters is a quiet-point reading of everything a window reports as a
// difference: taken with no transaction in flight and after a forced GC.
type counters struct {
	committed      int64
	heapAlloc      uint64
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNS      uint64
	cpuNS          int64
	walBytes       int64
	dirBytes       int64
	steal, jiffies uint64
	reg            regSnap
}

func (s *stack) read(committed int64) counters {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	steal, jiffies := hostCPU()
	return counters{
		steal: steal, jiffies: jiffies, committed: committed,
		heapAlloc: ms.HeapAlloc, mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPauseNS: ms.PauseTotalNs,
		cpuNS:    ru.Utime.Nano() + ru.Stime.Nano(),
		walBytes: s.dev.bytes.Load(),
		dirBytes: dirSize(s.dir),
		reg:      snapRegistry(s.reg),
	}
}

// hostCPU reads the machine's cumulative CPU accounting: jiffies a
// hypervisor ran something else while this guest wanted the CPU (steal), and
// jiffies in all. Both are 0 where /proc/stat is missing, and steal stays 0
// on bare metal.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if v, err := strconv.ParseUint(f, 10, 64); err == nil { // field 0 is the "cpu" label
			total += v
			if i == 8 {
				steal = v
			}
		}
	}
	return steal, total
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a file removed mid-walk by a checkpoint is simply not counted
	})
	return total
}

// regSnap copies the registry instruments the per-layer metrics read.
type regSnap struct {
	c map[string]int64
	h map[string]obs.HistogramSnapshot
}

var (
	regCounters = []string{
		"engine_statements_total", "engine_rollbacks_total", "engine_occ_commits_total", "engine_occ_conflicts_total",
		"lock_acquires_total", "lock_waits_total", "lock_deadlocks_total", "lock_slow_paths_total",
		"wal_appends_total", "wal_fsyncs_total", "wal_group_commits_total",
		"server_sessions_accepted_total", "server_request_errors_total",
		"repl_shipped_batches_total", "repl_degraded_total",
	}
	regHistograms = []string{
		"engine_statement_seconds", "engine_commit_seconds", "lock_wait_seconds",
		"wal_group_commit_batch_size", "repl_apply_seconds",
	}
)

func snapRegistry(reg *obs.Registry) regSnap {
	s := regSnap{c: make(map[string]int64), h: make(map[string]obs.HistogramSnapshot)}
	for _, name := range regCounters {
		s.c[name] = reg.Counter(name).Value()
	}
	for _, name := range regHistograms {
		s.h[name] = reg.Histogram(name).Snapshot()
	}
	return s
}

// histDelta is the histogram of samples recorded between two snapshots. Max
// cannot be differenced and stays the later snapshot's.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	out := b
	out.Count -= a.Count
	out.Sum -= a.Sum
	for i := range out.Buckets {
		out.Buckets[i] -= a.Buckets[i]
	}
	return out
}

// windowResult is everything one window measured.
type windowResult struct {
	e2e       map[string]float64 // end-to-end metrics
	layer     map[string]float64 // per-layer metrics this window could measure
	attempted int64
	failed    int64
	checks    verdicts
	spans     []span // traced windows only
	codec     [][2][]byte
}

// windowOpts sizes one window.
type windowOpts struct {
	tmp          string
	seed         int64
	warmUp       time.Duration
	refBurst     time.Duration
	measure      time.Duration
	traced       bool
	minCommitted int // fewer committed transactions than this fails the window
}

// runWindow builds a fresh stack, drives the workload closed-loop from
// `clients` goroutines for o.warmUp + o.measure, tears the stack down and
// checks its outputs. setup_s is everything before the measured interval:
// building the stack (setup.stack_s, which moves with the host's speed), the
// first reference burst, the warm-up and the first counter reading.
func runWindow(w workload, o windowOpts) (*windowResult, error) {
	began := time.Now()
	var tr *tracer
	if o.traced {
		tr = newTracer(clients)
	}
	st, stackTook, err := setup(w, o.tmp, tr, true)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer os.RemoveAll(st.dir)
	defer st.close()

	drivers := make([]*driver, clients)
	perClient := int((o.warmUp+o.measure).Seconds()*8000) + 1024
	for i := range drivers {
		drivers[i] = &driver{gen: newGenerator(w, o.seed, i), run: runRemote(st.cl), samples: make([]txnSample, 0, perClient)}
		if tr != nil {
			drivers[i].rec = tr.clients[i]
		}
	}

	ref, err := openReference(st.dir)
	if err != nil {
		return nil, fmt.Errorf("%s: opening the reference: %w", w.name, err)
	}
	defer ref.close()
	refBefore, err := ref.burst(o.refBurst)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	f := launch(drivers)
	time.Sleep(o.warmUp)
	var before counters
	var from, setupTook time.Duration
	f.quiet(func() {
		before = st.read(f.committed.Load())
		from, setupTook = time.Since(f.base), time.Since(began)
	})

	// The coordinator is idle while the clients run, so it is also the
	// background checkpointer: no checkpoint ever overlaps a counter reading.
	var ck checkpoints
	every := checkpointEvery(o.measure)
	for next := from + every; next < from+o.measure-every/2; next += every {
		time.Sleep(next - time.Since(f.base))
		if err := ck.run(st); err != nil {
			f.halt()
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	time.Sleep(from + o.measure - time.Since(f.base))
	to := time.Since(f.base)
	f.halt()
	// Read before the closing burst, so the differences hold none of the
	// reference's CPU, allocations or file growth.
	after := st.read(f.committed.Load())
	refAfter, err := ref.burst(o.refBurst)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	res := &windowResult{e2e: make(map[string]float64), layer: make(map[string]float64)}
	var lat []int64
	lat, res.attempted, res.failed = f.within(from, to)
	res.checks.check("every transaction commits", f.firstErr() == nil, "%v", f.firstErr())
	if len(lat) < o.minCommitted {
		return nil, fmt.Errorf("%s: only %d transactions committed in the window, need %d", w.name, len(lat), o.minCommitted)
	}
	refUS := (refBefore + refAfter) / 2
	txns := float64(after.committed - before.committed)
	us := durationsUS(lat)
	perS, p50, p99 := float64(len(lat))/(to-from).Seconds(), percentile(us, 0.50), percentile(us, 0.99)
	res.e2e["setup_s"] = setupTook.Seconds()
	res.e2e["txn_per_ref"] = perS * refUS / 1e6
	res.e2e["txn_p50_refs"] = p50 / refUS
	res.e2e["txn_p99_refs"] = p99 / refUS
	res.e2e["txn_per_s"] = perS
	res.e2e["txn_p50_us"] = p50
	res.e2e["txn_p99_us"] = p99
	res.e2e["ref_us_p50"] = refUS
	res.e2e["failed_frac"] = float64(res.failed) / float64(res.attempted)
	res.e2e["wal_bytes_per_txn"] = float64(after.walBytes-before.walBytes) / txns
	res.e2e["mem_bytes_per_txn"] = (float64(after.heapAlloc) - float64(before.heapAlloc)) / txns

	var attempts int64
	for _, d := range drivers {
		attempts += d.attempts
	}
	res.countedLayers(before, after, &ck)
	res.layer["setup.stack_s"] = stackTook.Seconds()
	res.layer["client.attempts_per_txn"] = float64(attempts) / float64(f.committed.Load()+f.failed.Load())
	res.layer["client.failed_frac"] = res.e2e["failed_frac"]

	res.verify(st, w, drivers, f.committed.Load())
	if tr != nil {
		shift := f.base.Sub(tr.epoch) // sample times -> tracer times
		res.tracedLayers(tr, int64(from+shift), int64(to+shift), txns)
	}
	return res, nil
}

// checkpoints times the serving stack's background checkpoint: the engine
// snapshot (taken under the store latch) and the disk write that follows.
type checkpoints struct {
	snapshotMS, writeMS []float64
	bytes               int64
}

func (c *checkpoints) run(st *stack) error {
	t0 := time.Now()
	snap, lsn, err := st.eng.Snapshot()
	t1 := time.Now()
	if err == nil {
		err = st.store.Checkpoint(snap, lsn)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	c.snapshotMS = append(c.snapshotMS, float64(t1.Sub(t0))/1e6)
	c.writeMS = append(c.writeMS, float64(time.Since(t1))/1e6)
	c.bytes = int64(len(snap))
	return nil
}
