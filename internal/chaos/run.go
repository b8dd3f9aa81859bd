package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adhoctx/internal/analyzer"
	"adhoctx/internal/client"
	"adhoctx/internal/disk"
	"adhoctx/internal/engine"
	"adhoctx/internal/faults"
	"adhoctx/internal/proxy"
	"adhoctx/internal/repl"
	"adhoctx/internal/server"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
	"adhoctx/internal/wire"
)

const (
	// lockTimeout bounds every engine's lock waits.
	lockTimeout = 2 * time.Second
	// segmentSize is the Restart topology's WAL segment rotation threshold,
	// small enough that runs actually rotate.
	segmentSize = 16 << 10
	// markerBase is where the txlog marker primary-key space starts; account
	// primary keys are assigned from 1 upward and never reach it.
	markerBase int64 = 1 << 40
)

// node is one engine served over TCP: the in-process stack, one era of the
// restart stack, or one replica.
type node struct {
	eng  *engine.Engine
	srv  *server.Server
	plan *sim.CrashPlan
	// hist captures the node's committed history from the moment it serves
	// writes (a follower's era begins at its promotion); nil before.
	hist  *analyzer.History
	store *disk.Store // Restart only
	// Replicated only.
	writable atomic.Bool
	led      *repl.Leader
	fol      *repl.Follower
}

// partition is one serving unit: its workload, the node serving its writes,
// its followers, and the commits acknowledged on it.
type partition struct {
	idx   uint32
	wl    *Workload
	pks   []int64 // the built-in workload's accounts
	acked []int64 // guarded by harness.mu

	mu        sync.Mutex
	leader    *node
	followers []*node
}

func (p *partition) current() *node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leader
}

func (p *partition) leaderAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.leader == nil || p.leader.srv == nil {
		return ""
	}
	return p.leader.srv.Addr().String()
}

// harness is one seed's run.
type harness struct {
	cfg    Config
	inj    *faults.Injector
	supRng *rand.Rand // crash timing only, so it never perturbs the workers
	parts  []*partition
	cli    *client.Client // InProcess and Restart
	router *proxy.Router  // Replicated

	mu    sync.Mutex // guards rep's counters, nodes and every partition's acked
	rep   *Report
	nodes []*node // every node ever booted, in boot order
}

// Run executes one seed end to end: boot the topology behind the fault
// injector, drive it with concurrent workers while the supervisor fires the
// armed crash points and recovers, then run the oracles. The returned error
// is reserved for harness breakage (a bad Config, failure to listen, a
// recovery that cannot boot); oracle violations land in the Report.
func Run(cfg Config) (rep *Report, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	plan := faults.Plan{}
	switch {
	case cfg.Faults && cfg.Topology == Replicated:
		plan = faults.Plan{DropPer10k: 20, TruncatePer10k: 20, WriteDelayPer10k: 100, ReadDelayPer10k: 100, MaxDelay: time.Millisecond}
	case cfg.Faults:
		plan = faults.DefaultPlan()
	}
	h := &harness{
		cfg:    cfg,
		inj:    faults.New(cfg.Seed, plan),
		supRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
		rep:    &Report{Seed: cfg.Seed, Replay: ReplayCommand(cfg), Faults: make(map[faults.Kind]int64)},
	}
	if cfg.Obs != nil {
		h.inj.WireObs(cfg.Obs)
	}
	if cfg.Topology == Restart {
		if h.rep.Dir, err = os.MkdirTemp("", "adhocchaos-restart-*"); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil || !rep.Failed() {
				_ = os.RemoveAll(h.rep.Dir)
				h.rep.Dir = ""
			}
		}()
	}
	for i := 0; i < cfg.Partitions; i++ {
		p := &partition{idx: uint32(i), wl: cfg.Workload}
		if p.wl == nil {
			p.pks = accountPKs(p.idx, uint32(cfg.Partitions), cfg.Rows)
			p.wl = transferWorkload(p.pks, cfg.OCC)
		}
		h.parts = append(h.parts, p)
	}
	h.rep.Workload = h.parts[0].wl.Name
	if err := h.boot(); err != nil {
		return nil, err
	}

	// Arm the first crash on one seed-chosen partition's leader.
	victim := h.parts[0]
	if len(h.parts) > 1 {
		victim = h.parts[h.supRng.Intn(len(h.parts))]
	}
	if cfg.Crashes > 0 {
		h.arm(victim.current())
	}
	workDone := make(chan struct{})
	var supWG sync.WaitGroup
	supErrs := make([]error, len(h.parts))
	for i, p := range h.parts {
		supWG.Add(1)
		go func() {
			defer supWG.Done()
			supErrs[i] = h.supervise(p, workDone)
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(worker int64) {
			defer wg.Done()
			h.work(worker)
		}(int64(w))
	}
	wg.Wait()
	h.rep.Elapsed = time.Since(start)
	close(workDone)
	supWG.Wait()
	if h.cli != nil {
		h.rep.Retries = h.cli.Retries()
		_ = h.cli.Close()
	} else {
		h.rep.Retries = h.router.Redirects()
		h.router.Close()
	}
	for _, err := range supErrs {
		if err != nil {
			return nil, err
		}
	}
	for k, n := range h.inj.Counts() {
		h.rep.Faults[k] = n
	}
	h.check()
	return h.rep, nil
}

// work is one worker: its own rng, a fresh txlog marker row in every
// attempt, and the marker of each acknowledged commit on the partition's
// acked list. Only the attempt whose COMMIT was acknowledged joins the
// oracle set — an ambiguous (crashed mid-commit, retried) attempt may or may
// not have survived, and either outcome is legal. On the Replicated topology
// every fourth operation is a bounded-staleness read instead.
func (h *harness) work(worker int64) {
	rng := rand.New(rand.NewSource(h.cfg.Seed*1_000_003 + worker))
	cursor := markerBase + worker*1_000_000
	for i := 0; i < h.cfg.Ops; i++ {
		p := h.parts[0]
		if len(h.parts) > 1 {
			p = h.parts[rng.Intn(len(h.parts))]
		}
		read := h.router != nil && i%4 == 3
		var marker int64
		err := h.txn(p, read, func(txn *client.Txn) error {
			if read {
				pk := p.pks[rng.Intn(len(p.pks))]
				return readAccount(txn, pk, wire.LockNone)
			}
			marker = cursor
			for wire.PartitionOf(marker, uint32(len(h.parts))) != p.idx {
				marker++
			}
			cursor = marker + 1
			if _, err := txn.Insert("txlog", map[string]storage.Value{
				storage.PKColumn: marker, "worker": worker,
			}); err != nil {
				return err
			}
			return p.wl.Op(rng, txn)
		})
		h.mu.Lock()
		if err != nil {
			h.rep.OpErrs++
		} else {
			h.rep.Ops++
			if !read {
				p.acked = append(p.acked, marker)
			}
		}
		h.mu.Unlock()
	}
}

// txn runs fn as one client transaction on partition p, retried the way the
// topology's client side retries.
func (h *harness) txn(p *partition, read bool, fn func(*client.Txn) error) error {
	switch {
	case h.cli != nil:
		return h.cli.RunTxnWith(engine.IsolationDefault, client.BeginOpts{OCC: p.wl.OCC}, fn)
	case read:
		return h.router.RunReadTxn(p.idx, engine.IsolationDefault, fn)
	default:
		return h.router.RunTxn(p.idx, engine.IsolationDefault, fn)
	}
}

// arm arms a seed-chosen crash point on n a handful of visits in, so every
// configured crash lands mid-workload.
func (h *harness) arm(n *node) {
	points := []string{server.CrashPointCommitBefore, server.CrashPointCommitAfter}
	after := 2
	switch {
	case h.cfg.Topology == Replicated:
		// Later, so acknowledged commits sit on both sides of the kill.
		points = append(points, wal.CrashPointShipBefore, wal.CrashPointShipAfter)
		after = 4
	case h.cfg.GroupCommit || h.cfg.Topology == Restart:
		// The WAL flush points only exist on the group-commit path.
		points = append(points, wal.CrashPointBeforeFsync, wal.CrashPointAfterFsync)
	}
	if h.cfg.OCC {
		// engine/occ-commit kills the process after the write-set is applied
		// in memory but before the WAL append: the commit was never acked,
		// so recovery must make it vanish.
		points = append(points, engine.CrashPointOCCValidate, engine.CrashPointOCCCommit)
	}
	n.plan.Arm(points[h.supRng.Intn(len(points))], after+h.supRng.Intn(3*after))
}

// supervise watches p's serving node until the workload is done: on each
// crash it records the point, recovers the topology's way, and arms the next
// crash while cfg.Crashes allows.
func (h *harness) supervise(p *partition, workDone <-chan struct{}) error {
	for crashed := 1; ; crashed++ {
		dead := p.current()
		select {
		case <-workDone:
			return nil
		case <-dead.srv.Crashed():
		}
		h.mu.Lock()
		h.rep.CrashPoints = append(h.rep.CrashPoints, dead.srv.CrashPoint())
		h.mu.Unlock()
		if err := h.recover(p, dead); err != nil {
			return err
		}
		h.mu.Lock()
		h.rep.Recoveries++
		h.mu.Unlock()
		if crashed < h.cfg.Crashes {
			h.arm(p.current())
		}
	}
}

// boot brings every partition up and connects the client side.
func (h *harness) boot() error {
	cc := client.Config{
		PoolSize:       h.cfg.Clients,
		MaxRetries:     40,
		BackoffBase:    300 * time.Microsecond,
		DialTimeout:    time.Second,
		RequestTimeout: 2 * lockTimeout,
		RetryConnLost:  true,
		Dial:           h.inj.Dial,
	}
	if h.cfg.Topology != Replicated {
		n, err := h.startNode(h.parts[0], "", true)
		if err != nil {
			return err
		}
		if h.cfg.Topology == Restart {
			// A restart takes longer to ride out than an in-place recovery.
			cc.MaxRetries, cc.BackoffBase = 60, 500*time.Microsecond
		}
		cc.Addr = n.srv.Addr().String()
		h.cli = client.New(cc)
		return nil
	}

	// The router retries; its per-node clients fail fast to it.
	cc.MaxRetries, cc.DialTimeout = 4, 500*time.Millisecond
	rcfg := proxy.RouterConfig{ClientConfig: cc, MaxRetries: 60, MaxRedirects: 8, BackoffBase: 2 * time.Millisecond}
	for _, p := range h.parts {
		ldr, err := h.startNode(p, "", true)
		if err != nil {
			return err
		}
		// Strict semi-sync: AckTimeout 0, so an ack always implies a
		// follower holds the batch — the promotion oracle's premise.
		ldr.led = repl.NewLeader(ldr.eng, repl.LeaderConfig{
			Addr:      "127.0.0.1:0",
			Partition: p.idx,
			Epoch:     1,
			Quorum:    repl.SemiSync,
			Replicas:  1 + h.cfg.Followers,
			Obs:       h.cfg.Obs,
		})
		if err := ldr.led.Start(); err != nil {
			return fmt.Errorf("chaos: repl leader: %w", err)
		}
		var addrs []string
		for f := 0; f < h.cfg.Followers; f++ {
			fn, err := h.startNode(p, "", false)
			if err != nil {
				return err
			}
			fn.fol = repl.NewFollower(fn.eng, repl.FollowerConfig{
				LeaderAddr: ldr.led.Addr(), Partition: p.idx, Epoch: 1, Obs: h.cfg.Obs,
			})
			fn.fol.Start()
			p.followers = append(p.followers, fn)
			addrs = append(addrs, fn.srv.Addr().String())
		}
		for _, fn := range p.followers {
			if !waitLSN(fn.eng.AppliedLSN, ldr.eng.AppliedLSN(), 5*time.Second) {
				return fmt.Errorf("chaos: partition %d follower never caught up to seed", p.idx)
			}
		}
		rcfg.Partitions = append(rcfg.Partitions, proxy.PartitionNodes{Leader: p.leaderAddr(), Followers: addrs})
	}
	h.router = proxy.NewRouter(rcfg)
	return nil
}

// startNode boots a node for p and serves it on addr ("" = any port). A
// writable node is p's leader: seeded (or, on the Restart topology, loaded
// from the data directory) and traced. Followers start empty and catch up
// by replication.
func (h *harness) startNode(p *partition, addr string, writable bool) (*node, error) {
	n := &node{plan: &sim.CrashPlan{}}
	var rec *disk.Recovered
	var dev wal.Device
	if h.cfg.Topology == Restart {
		var err error
		if n.store, rec, err = disk.Open(h.rep.Dir, disk.Options{SegmentSize: segmentSize}); err != nil {
			return nil, fmt.Errorf("chaos: open data dir: %w", err)
		}
		dev = n.store
		h.mu.Lock()
		h.rep.TornBytes += rec.TruncatedTail
		h.mu.Unlock()
	}
	n.eng = newEngine(h.cfg, p.wl, n.plan, dev)
	if writable {
		if err := load(n, p.wl, rec); err != nil {
			return nil, err
		}
		n.hist = analyzer.NewHistory()
		n.eng.SetTracer(n.hist)
	}
	n.writable.Store(writable)
	if err := h.serve(p, n, addr); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if writable {
		p.leader = n
	}
	p.mu.Unlock()
	h.mu.Lock()
	h.nodes = append(h.nodes, n)
	h.mu.Unlock()
	return n, nil
}

// newEngine builds an engine with the workload's tables plus the harness's
// txlog marker table. MySQL dialect: RepeatableRead plus FOR UPDATE locking
// reads — the configuration whose committed histories must be serializable
// for these workloads, so any cycle the analyzer finds is a real bug.
func newEngine(cfg Config, wl *Workload, plan *sim.CrashPlan, dev wal.Device) *engine.Engine {
	eng := engine.New(engine.Config{
		Dialect:     engine.MySQL,
		LockTimeout: lockTimeout,
		WALFsync:    sim.Latency{Fsync: cfg.Fsync},
		GroupCommit: cfg.GroupCommit || dev != nil,
		LockShards:  cfg.LockShards,
		WALDevice:   dev,
		Crash:       plan,
	})
	for _, sch := range wl.Tables {
		eng.CreateTable(sch)
	}
	eng.CreateTable(storage.NewSchema("txlog", storage.Column{Name: "worker", Type: storage.TInt}))
	return eng
}

// load seeds a fresh database, or loads what recovery found in the data
// directory and checkpoints it on boot — folding the replayed tail into a
// fresh checkpoint prunes segments, shortens the next recovery, and
// exercises checkpointing itself under chaos.
func load(n *node, wl *Workload, rec *disk.Recovered) error {
	if rec == nil || rec.Empty() {
		txn := n.eng.Begin(engine.IsolationDefault)
		if err := wl.Seed(txn); err != nil {
			return fmt.Errorf("chaos: seed: %w", err)
		}
		if err := txn.Commit(); err != nil {
			return fmt.Errorf("chaos: seed commit: %w", err)
		}
		return nil
	}
	if err := n.eng.LoadRecovered(rec.Checkpoint, rec.Tail, rec.LastLSN); err != nil {
		return fmt.Errorf("chaos: load recovered: %w", err)
	}
	snap, lsn, err := n.eng.Snapshot()
	if err != nil {
		return fmt.Errorf("chaos: boot snapshot: %w", err)
	}
	if err := n.store.Checkpoint(snap, lsn); err != nil {
		return fmt.Errorf("chaos: boot checkpoint: %w", err)
	}
	return nil
}

// serve starts n's server on addr, retrying briefly: a dead listener's port
// can take a moment to become bindable again.
func (h *harness) serve(p *partition, n *node, addr string) error {
	srv := server.New(n.eng, nil, server.Config{
		Addr:           addr,
		MaxSessions:    2*h.cfg.Clients + 4,
		IdleTimeout:    2 * time.Second,
		WrapConn:       h.inj.WrapConn,
		Crash:          n.plan,
		Writable:       n.writable.Load,
		LeaderHint:     p.leaderAddr,
		PartitionIndex: p.idx,
		PartitionCount: uint32(len(h.parts)),
		AppliedLSN:     n.eng.AppliedLSN,
	})
	if h.cfg.Obs != nil {
		srv.WireObs(h.cfg.Obs)
	}
	var err error
	for i := 0; i < 50; i++ {
		if err = srv.Start(); err == nil {
			p.mu.Lock()
			n.srv = srv
			p.mu.Unlock()
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("chaos: listen: %w", err)
}

// recover brings p back after its serving node dead crashed: the only step
// the three topologies do differently.
func (h *harness) recover(p *partition, dead *node) error {
	addr := dead.srv.Addr().String()
	_ = dead.srv.Close()
	switch h.cfg.Topology {
	case InProcess:
		// Reap the dead server's sessions, replay the WAL, serve again on
		// the same address — the ops loop the paper's web stacks rely on.
		if err := dead.eng.Recover(); err != nil {
			return fmt.Errorf("chaos: recovery: %w", err)
		}
		return h.serve(p, dead, addr)
	case Restart:
		// Die the way a process dies: nothing is flushed on the way out, so
		// staged-unsynced bytes are lost and durability must come from the
		// syncs that already happened. Then boot from the directory.
		dead.eng.Crash()
		_ = dead.store.Close()
		_, err := h.startNode(p, addr, true)
		return err
	default:
		return h.failover(p, dead)
	}
}

// failover promotes p's follower with the highest applied LSN and rewires
// the topology and the router.
//
// Why that follower holds every acknowledged commit: WAL LSNs are dense and
// followers apply strictly by prefix, so every follower's state is a prefix
// of the dead leader's log and follower states are totally ordered by
// applied LSN. A semi-sync-acked batch at LSN L is durable on at least one
// follower, whose prefix therefore extends to ≥ L; the maximum-LSN
// follower's prefix extends at least as far. This needs strict semi-sync
// (AckTimeout 0): a degrade-to-async window would let an ack race the ship.
func (h *harness) failover(p *partition, dead *node) error {
	dead.led.Close() // cuts the followers' streams; they begin retrying
	p.mu.Lock()
	survivors := p.followers
	p.mu.Unlock()
	if len(survivors) == 0 {
		return fmt.Errorf("chaos: partition %d leader died with no followers", p.idx)
	}
	best := survivors[0]
	for _, fn := range survivors[1:] {
		if fn.fol.AppliedLSN() > best.fol.AppliedLSN() {
			best = fn
		}
	}
	var rest []*node
	var restAddrs []string
	for _, fn := range survivors {
		if fn != best {
			rest = append(rest, fn)
			restAddrs = append(restAddrs, fn.srv.Addr().String())
		}
	}
	quorum := repl.SemiSync
	if len(rest) == 0 {
		// Strict semi-sync with zero followers would wedge every commit.
		quorum = repl.Async
	}
	promoted, err := best.fol.Promote(repl.LeaderConfig{
		Addr: "127.0.0.1:0", Partition: p.idx, Quorum: quorum, Replicas: 1 + len(rest),
	})
	if err != nil {
		return fmt.Errorf("chaos: partition %d promote: %w", p.idx, err)
	}
	best.led = promoted
	for _, fn := range rest {
		fn.fol.Retarget(promoted.Addr())
	}
	// Trace the promoted era before it becomes writable, so its committed
	// history is complete.
	best.hist = analyzer.NewHistory()
	best.eng.SetTracer(best.hist)
	p.mu.Lock()
	p.leader, p.followers = best, rest
	p.mu.Unlock()
	best.writable.Store(true)
	h.router.UpdateLeader(p.idx, best.srv.Addr().String())
	h.router.SetFollowers(p.idx, restAddrs)
	return nil
}

// check drains every node and runs the oracles on what is left.
func (h *harness) check() {
	rep := h.rep
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	// Every client has disconnected. Servers first, so each session's
	// rollback path runs and its locks release; then the replication roles.
	for _, n := range h.nodes {
		_ = n.srv.Close()
	}
	for _, n := range h.nodes {
		if n.fol != nil {
			n.fol.Stop()
		}
		if n.led != nil {
			n.led.Close()
		}
		if n.store != nil {
			_ = n.store.Close()
		}
	}

	// Zero leaked locks and zero leaked snapshots on every node, dead or
	// alive: neither may outlive its session, crashed or not — a lock is the
	// paper's stuck-lock failure class (§4.3), a snapshot pins the engine's
	// version watermark. And every era's committed history is
	// conflict-serializable: aborted and in-flight transactions are
	// projected out first, and eras are checked separately because
	// transaction IDs restart with each engine.
	for i, n := range h.nodes {
		if leaked := waitForZero(n.eng.LockManager().HeldCount, 2*time.Second); leaked != 0 {
			rep.LeakedLocks += leaked
			violate("node %d: %d locks still held after all clients disconnected", i, leaked)
		}
		snapshots := func() int { registered, _, _ := n.eng.SnapshotWatermark(); return registered }
		if leaked := waitForZero(snapshots, 2*time.Second); leaked != 0 {
			rep.LeakedSnapshots += leaked
			violate("node %d: %d snapshots still registered after all clients disconnected", i, leaked)
		}
		if n.hist == nil {
			continue
		}
		items := n.hist.Items()
		for _, it := range items {
			if it.Kind == analyzer.OpCommit {
				rep.Committed++
			}
		}
		if cycle := analyzer.CheckCommitted(items); cycle != nil {
			violate("node %d: committed history not serializable: cycle %v", i, cycle)
		}
	}

	// Every acknowledged marker is in the partition's final state, and the
	// workload's invariants hold there. Its probe transactions take FOR
	// UPDATE locks, so this doubles as a leaked-exclusive-lock detector.
	var observed []string
	for _, p := range h.parts {
		eng, err := h.finalState(p)
		if err != nil {
			violate("partition %d: %v", p.idx, err)
			continue
		}
		rep.Acked += len(p.acked)
		missing := 0
		for _, m := range p.acked {
			row, err := probeRow(eng, "txlog", m)
			if err != nil {
				violate("partition %d: marker probe %d: %v", p.idx, m, err)
				break
			}
			if row == nil {
				missing++
			}
		}
		if missing > 0 {
			violate("partition %d: %d acknowledged commits missing from the final state", p.idx, missing)
		}
		seen, viols := p.wl.Check(eng)
		observed = append(observed, seen)
		for _, v := range viols {
			violate("partition %d: %s", p.idx, v)
		}
	}
	rep.Observed = strings.Join(observed, " ")
}

// finalState is the engine holding p's final state: the serving engine, or
// on the Restart topology a cold re-open of the data directory with no
// server, no workload and no crash plan — only what is on disk.
func (h *harness) finalState(p *partition) (*engine.Engine, error) {
	if h.cfg.Topology != Restart {
		return p.current().eng, nil
	}
	store, rec, err := disk.Open(h.rep.Dir, disk.Options{SegmentSize: segmentSize})
	if err != nil {
		return nil, fmt.Errorf("cold re-open failed: %w", err)
	}
	defer store.Close()
	h.rep.TornBytes += rec.TruncatedTail
	eng := newEngine(h.cfg, p.wl, nil, nil)
	if err := eng.LoadRecovered(rec.Checkpoint, rec.Tail, rec.LastLSN); err != nil {
		return nil, fmt.Errorf("cold recovery replay failed: %w", err)
	}
	return eng, nil
}

// accountPKs assigns n account primary keys owned by partition p: the
// routing hash decides ownership, so keys are found by scanning upward.
func accountPKs(p, parts uint32, n int) []int64 {
	out := make([]int64, 0, n)
	for pk := int64(1); len(out) < n; pk++ {
		if wire.PartitionOf(pk, parts) == p {
			out = append(out, pk)
		}
	}
	return out
}

// probeRow reads one row by primary key in a fresh transaction.
func probeRow(eng *engine.Engine, table string, pk int64) (storage.Row, error) {
	txn := eng.Begin(engine.IsolationDefault)
	defer func() { _ = txn.Rollback() }()
	return txn.SelectOne(table, storage.ByPK(pk))
}

// waitForZero polls count until it reports zero or the deadline passes,
// returning the final count. Sessions release their locks and snapshots on
// the way out, so a brief settle window is legitimate; a count that never
// reaches zero is a leak.
func waitForZero(count func() int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := count()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitLSN polls fn until it reaches target or the deadline passes.
func waitLSN(fn func() uint64, target uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if fn() >= target {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return fn() >= target
}
