package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"adhoctx/internal/client"
	"adhoctx/internal/disk"
	"adhoctx/internal/engine"
	"adhoctx/internal/obs"
	"adhoctx/internal/repl"
	"adhoctx/internal/server"
	"adhoctx/internal/wal"
)

// clients is both the number of closed-loop client goroutines and the pool
// size: the host has 2 CPUs, and a web handler holding a pooled connection
// waits for each reply before it sends the next statement.
const clients = 2

// lockTimeout is cmd/adhocserve's default row-lock wait bound.
const lockTimeout = 5 * time.Second

// stack is the production serving stack in one process, assembled the way
// cmd/adhocserve does it: disk store -> engine (Postgres dialect, group
// commit, obs registry) -> server on loopback -> pooled client, plus a
// strict semi-sync follower on its own disk store when the workload is
// replicated.
type stack struct {
	dir   string
	store *disk.Store
	dev   *countingDevice // the leader's WAL device: store, counted
	eng   *engine.Engine
	reg   *obs.Registry
	srv   *server.Server
	cl    *client.Client

	leader   *repl.Leader
	fol      *repl.Follower
	folStore *disk.Store
	folEng   *engine.Engine
}

// countingDevice counts the bytes the WAL hands to its device. The log's own
// length (wal.Log.Len) is what is resident in memory, which a trimmed log
// would no longer grow by; this is what goes to disk.
type countingDevice struct {
	wal.Device
	bytes atomic.Int64
}

func (d *countingDevice) Append(p []byte) error {
	d.bytes.Add(int64(len(p)))
	return d.Device.Append(p)
}

func newEngine(dev wal.Device) *engine.Engine {
	eng := engine.New(engine.Config{
		Dialect:     engine.Postgres,
		WALDevice:   dev,
		GroupCommit: true,
		LockTimeout: lockTimeout,
	})
	createTables(eng)
	return eng
}

// setup builds a fresh stack in a fresh directory under tmp and returns how
// long that took: directory, disk.Open, seed load, follower caught up,
// server listening and the pool dialled. network=false stops after the
// engine (the in-process peel). A non-nil tracer installs its wrappers.
func setup(w workload, tmp string, tr *tracer, network bool) (s *stack, took time.Duration, err error) {
	start := time.Now()
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
			_ = os.RemoveAll(s.dir)
		}
	}()
	if err = os.MkdirAll(tmp, 0o755); err != nil {
		return s, 0, err
	}
	if s.dir, err = os.MkdirTemp(tmp, "adhocbench-"); err != nil {
		return s, 0, err
	}
	if s.store, _, err = disk.Open(filepath.Join(s.dir, "leader"), disk.Options{}); err != nil {
		return s, 0, err
	}
	s.dev = &countingDevice{Device: s.store}
	var dev wal.Device = s.dev
	if tr != nil {
		tr.leader = &timedDevice{dev: s.dev, tr: tr}
		dev = tr.leader
	}
	s.eng = newEngine(dev)
	s.reg = obs.NewRegistry()
	s.eng.WireObs(s.reg)
	if err = seedAccounts(s.eng); err != nil {
		return s, 0, err
	}

	if w.replicated {
		if err = s.startReplication(tr); err != nil {
			return s, 0, err
		}
	}
	if !network {
		return s, time.Since(start), nil
	}

	scfg := server.Config{Addr: "127.0.0.1:0"}
	ccfg := client.Config{PoolSize: clients, MaxRetries: 10}
	if tr != nil {
		scfg.WrapConn = tr.wrapServer
		ccfg.Dial = tr.dial
	}
	s.srv = server.New(s.eng, nil, scfg)
	s.srv.WireObs(s.reg)
	if err = s.srv.Start(); err != nil {
		return s, 0, err
	}
	ccfg.Addr = s.srv.Addr().String()
	s.cl = client.New(ccfg)
	// Dial the whole pool: hold one transaction per connection, then release.
	var held []*client.Txn
	for i := 0; i < clients; i++ {
		t, berr := s.cl.Begin(engine.IsolationDefault)
		if berr != nil {
			err = fmt.Errorf("dialling pool: %w", berr)
			break
		}
		held = append(held, t)
	}
	for _, t := range held {
		if rerr := t.Rollback(); rerr != nil && err == nil {
			err = fmt.Errorf("dialling pool: %w", rerr)
		}
	}
	return s, time.Since(start), err
}

// startReplication attaches one strict semi-sync follower (Replicas 2,
// AckTimeout 0) applying onto its own disk directory, and waits until it has
// caught up with the seed load.
func (s *stack) startReplication(tr *tracer) error {
	s.leader = repl.NewLeader(s.eng, repl.LeaderConfig{
		Addr: "127.0.0.1:0", Epoch: 1, Quorum: repl.SemiSync, Replicas: 2, Obs: s.reg,
	})
	if err := s.leader.Start(); err != nil {
		return err
	}
	var err error
	if s.folStore, _, err = disk.Open(filepath.Join(s.dir, "follower"), disk.Options{}); err != nil {
		return err
	}
	var dev wal.Device = s.folStore
	if tr != nil {
		tr.follow = &timedDevice{dev: s.folStore, tr: tr}
		dev = tr.follow
		// Re-install the shipper as a timed call to the leader's own hook.
		s.eng.WAL().SetShipper(func(raw []byte, first, last uint64) {
			start := tr.since()
			s.leader.Ship(raw, first, last)
			end := tr.since()
			tr.mu.Lock()
			tr.ships = append(tr.ships, interval{start: start, end: end, n: int64(last - first + 1)})
			tr.mu.Unlock()
		})
	}
	s.folEng = newEngine(dev)
	s.fol = repl.NewFollower(s.folEng, repl.FollowerConfig{LeaderAddr: s.leader.Addr(), Epoch: 1, Obs: s.reg})
	s.fol.Start()
	return s.waitFollower(5 * time.Second)
}

// waitFollower blocks until the follower has applied everything durable on
// the leader.
func (s *stack) waitFollower(limit time.Duration) error {
	want := s.eng.AppliedLSN()
	deadline := time.Now().Add(limit)
	for s.fol.AppliedLSN() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at LSN %d never reached %d", s.fol.AppliedLSN(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops every goroutine the stack started and closes its files. It is
// safe on a partly built stack and leaves the directory in place.
func (s *stack) close() error {
	var errs []error
	if s.cl != nil {
		errs = append(errs, s.cl.Close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.fol != nil {
		s.fol.Stop()
	}
	if s.leader != nil {
		s.leader.Close()
	}
	if s.folStore != nil {
		errs = append(errs, s.folStore.Close())
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	return errors.Join(errs...)
}
