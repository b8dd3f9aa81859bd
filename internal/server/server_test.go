package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/kv"
	"adhoctx/internal/obs"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// newTestServer starts a server over a fresh engine (with a seeded "skus"
// table) and KV store, returning it with its registry. Callers own Close.
func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Registry) {
	return newTestServerLockTimeout(t, cfg, 5*time.Second)
}

func newTestServerLockTimeout(t *testing.T, cfg Config, lockTimeout time.Duration) (*Server, *obs.Registry) {
	t.Helper()
	eng := engine.New(engine.Config{
		Dialect: engine.Postgres, LockTimeout: lockTimeout,
	})
	eng.CreateTable(storage.NewSchema("skus",
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "qty", Type: storage.TInt},
	))
	txn := eng.Begin(engine.IsolationDefault)
	if _, err := txn.Insert("skus", map[string]storage.Value{"name": "widget", "qty": int64(10)}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	store := kv.NewStore(sim.NewFakeClock(time.Unix(0, 0)), sim.Latency{})

	reg := obs.NewRegistry()
	srv := New(eng, store, cfg)
	srv.WireObs(reg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, reg
}

func newTestClient(t *testing.T, srv *Server, cfg client.Config) *client.Client {
	t.Helper()
	cfg.Addr = srv.Addr().String()
	c := client.New(cfg)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestEndToEndTransaction(t *testing.T) {
	srv, reg := newTestServer(t, Config{})
	c := newTestClient(t, srv, client.Config{})

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// Read-modify-write through the wire: the paper's canonical ad hoc
	// critical section, here under a real transaction.
	err := c.RunTxn(engine.RepeatableRead, func(txn *client.Txn) error {
		rows, err := txn.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockForUpdate)
		if err != nil {
			return err
		}
		if len(rows.Rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(rows.Rows))
		}
		n, err := txn.Update("skus", storage.Eq{Col: "id", Val: int64(1)},
			map[string]storage.Value{"qty": storage.Inc(-1)})
		if err != nil {
			return err
		}
		if n != 1 {
			t.Fatalf("updated %d rows, want 1", n)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunTxn: %v", err)
	}

	// Verify the decrement committed, and that column order survives.
	txn, err := c.Begin(engine.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := txn.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockNone)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Cols; len(got) != 3 || got[0] != "id" || got[1] != "name" || got[2] != "qty" {
		t.Fatalf("cols = %v", got)
	}
	if qty := rows.Rows[0][2]; qty != int64(9) {
		t.Fatalf("qty = %v, want 9", qty)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}

	if v := reg.Counter("server_sessions_accepted_total").Value(); v == 0 {
		t.Error("no sessions counted as accepted")
	}
	if v := reg.Counter("server_bytes_read_total").Value(); v == 0 {
		t.Error("no bytes counted in")
	}
	snap := reg.Histogram(`wire_request_seconds{op="select"}`).Snapshot()
	if snap.Count == 0 {
		t.Error("no select latency recorded")
	}
}

// TestTypedErrorsCrossTheWire pins the retry contract end to end: engine
// sentinels survive server → wire → client and still satisfy errors.Is.
func TestTypedErrorsCrossTheWire(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	c := newTestClient(t, srv, client.Config{})

	txn, err := c.Begin(engine.IsolationDefault)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Rollback()
	if _, err := txn.Select("no_such_table", storage.All{}, wire.LockNone); !errors.Is(err, engine.ErrNoTable) {
		t.Fatalf("missing table err = %v, want ErrNoTable", err)
	}
	// Duplicate BEGIN on the same session is a protocol error, not an
	// engine error.
	if _, err := txn.Select("skus", storage.All{}, wire.LockNone); err != nil {
		t.Fatalf("session unusable after typed error: %v", err)
	}
}

func TestKVOverTheWire(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	c := newTestClient(t, srv, client.Config{})

	k, err := c.KV()
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()

	if won, err := k.SetNXPX("lock:1", "me", time.Minute); err != nil || !won {
		t.Fatalf("SetNXPX = %v, %v", won, err)
	}
	if won, err := k.SetNX("lock:1", "them"); err != nil || won {
		t.Fatalf("second SetNX = %v, %v", won, err)
	}

	// The full optimistic protocol, including a server-side misuse error.
	if _, err := k.Exec(); err == nil || !strings.Contains(err.Error(), "EXEC without MULTI") {
		t.Fatalf("Exec without Multi err = %v", err)
	}
	if err := k.Watch("lock:2"); err != nil {
		t.Fatal(err)
	}
	if err := k.Multi(); err != nil {
		t.Fatal(err)
	}
	if err := k.Set("lock:2", "me"); err != nil {
		t.Fatal(err)
	}
	if ok, err := k.Exec(); err != nil || !ok {
		t.Fatalf("Exec = %v, %v", ok, err)
	}
	if v, ok, err := k.Get("lock:2"); err != nil || !ok || v != "me" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
}

// TestLockTimeoutKeepsTxnUsable pins the MySQL-style statement-failure
// semantics over the wire: a lock wait timeout fails the statement, but the
// transaction — and the connection it is pinned to — stay live, so the
// caller can retry the statement or roll back. Regression: the client used
// to finish the handle and pool the connection while the server session
// still held an open transaction and its row locks, so the next Begin that
// checked out that connection got CodeTxnOpen.
func TestLockTimeoutKeepsTxnUsable(t *testing.T) {
	srv, _ := newTestServerLockTimeout(t, Config{}, 100*time.Millisecond)
	c := newTestClient(t, srv, client.Config{PoolSize: 1})

	holder := dialRaw(t, srv)
	defer holder.Close()
	rawRoundTrip(t, holder, &wire.Request{Op: wire.OpBegin})
	rawRoundTrip(t, holder, &wire.Request{
		Op: wire.OpSelect, Table: "skus", Lock: wire.LockForUpdate,
		Pred: storage.Eq{Col: "id", Val: int64(1)},
	})

	txn, err := c.Begin(engine.IsolationDefault)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockForUpdate); !errors.Is(err, engine.ErrLockTimeout) {
		t.Fatalf("blocked select err = %v, want ErrLockTimeout", err)
	}
	if txn.Done() {
		t.Fatal("lock timeout finished the txn handle; the transaction must stay usable")
	}

	// Release the blocker: the same transaction retries the statement.
	rawRoundTrip(t, holder, &wire.Request{Op: wire.OpRollback})
	if _, err := txn.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockForUpdate); err != nil {
		t.Fatalf("retry on same txn after timeout: %v", err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatalf("rollback after timeout: %v", err)
	}

	// The connection must return to the pool clean: with PoolSize 1 the next
	// Begin reuses it, and a leaked server-side transaction would surface
	// here as a non-retryable CodeTxnOpen.
	txn2, err := c.Begin(engine.IsolationDefault)
	if err != nil {
		t.Fatalf("begin on pooled conn after timeout: %v", err)
	}
	if err := txn2.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestKVCloseDiscardsSessionState: a KV conversation abandoned mid
// WATCH/MULTI (any error path that skips Exec/Discard) must not leak that
// server-session state to the next KVConn handed the same pooled
// connection — a stale watch set fails unrelated EXECs, and a leftover
// MULTI queue turns the next Multi into a nested-MULTI error.
func TestKVCloseDiscardsSessionState(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	c := newTestClient(t, srv, client.Config{PoolSize: 1})

	k1, err := c.KV()
	if err != nil {
		t.Fatal(err)
	}
	if err := k1.Watch("w"); err != nil {
		t.Fatal(err)
	}
	if err := k1.Multi(); err != nil {
		t.Fatal(err)
	}
	if err := k1.Set("x", "stale"); err != nil {
		t.Fatal(err)
	}
	k1.Close() // abandoned mid-conversation

	k2, err := c.KV()
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	// Bump the key k1 watched; a leaked watch set would fail the EXEC below.
	if err := k2.Set("w", "bumped"); err != nil {
		t.Fatal(err)
	}
	// A leaked MULTI queue would make this a nested-MULTI error.
	if err := k2.Multi(); err != nil {
		t.Fatalf("Multi on pooled conn after abandoned conversation: %v", err)
	}
	if err := k2.Set("x", "fresh"); err != nil {
		t.Fatal(err)
	}
	if ok, err := k2.Exec(); err != nil || !ok {
		t.Fatalf("Exec = %v, %v; leaked watch set or queue", ok, err)
	}
	if v, _, err := k2.Get("x"); err != nil || v != "fresh" {
		t.Fatalf("x = %q, %v; want %q", v, err, "fresh")
	}
}

// TestAdmissionControl fills the only session slot and verifies the typed
// CodeSaturated rejection — fast, explicit, and marked retryable, unlike a
// silent connection drop.
func TestAdmissionControl(t *testing.T) {
	srv, reg := newTestServer(t, Config{
		MaxSessions: 1, MaxQueued: 1, QueueWait: 50 * time.Millisecond,
	})

	// Occupy the slot with an open transaction on a raw connection.
	holder := dialRaw(t, srv)
	defer holder.Close()
	rawRoundTrip(t, holder, &wire.Request{Op: wire.OpBegin})

	// The next dial handshakes, queues, times out, and is told why.
	probe := dialRaw(t, srv)
	defer probe.Close()
	var resp wire.Response
	payload, err := wire.ReadFrame(probe, nil)
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if err := wire.DecodeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != wire.CodeSaturated {
		t.Fatalf("rejection code = %v, want saturated", resp.Code)
	}
	if !wire.IsRetryable(resp.Err()) {
		t.Fatal("saturation must be retryable")
	}
	if v := reg.Counter("server_sessions_rejected_total").Value(); v != 1 {
		t.Errorf("rejected counter = %d, want 1", v)
	}
	if v := reg.Gauge("server_sessions_queued").Value(); v != 0 {
		t.Errorf("queued gauge = %d after rejection, want 0", v)
	}

	// Releasing the slot lets a new session in: the client's
	// retry-with-backoff path succeeds end to end.
	done := make(chan error, 1)
	c := newTestClient(t, srv, client.Config{
		MaxRetries: 20, BackoffBase: 5 * time.Millisecond, PoolSize: 1,
	})
	go func() {
		done <- c.RunTxn(engine.IsolationDefault, func(txn *client.Txn) error {
			_, err := txn.Select("skus", storage.All{}, wire.LockNone)
			return err
		})
	}()
	time.Sleep(20 * time.Millisecond)
	rawRoundTrip(t, holder, &wire.Request{Op: wire.OpRollback})
	_ = holder.Close()
	if err := <-done; err != nil {
		t.Fatalf("retry after saturation: %v", err)
	}
}

// TestGracefulDrain is the shutdown satellite: an in-flight transaction
// completes during Close while new dials are refused.
func TestGracefulDrain(t *testing.T) {
	srv, _ := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	c := newTestClient(t, srv, client.Config{})

	txn, err := c.Begin(engine.IsolationDefault)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Update("skus", storage.Eq{Col: "id", Val: int64(1)},
		map[string]storage.Value{"qty": storage.Inc(5)}); err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// New dials must fail fast while the drain is in progress.
	deadline := time.Now().Add(time.Second)
	for {
		nc, err := net.DialTimeout("tcp", srv.Addr().String(), 200*time.Millisecond)
		if err != nil {
			break
		}
		// The listener may accept dials that raced Close; they must still be
		// refused at the protocol level (handshake or first read fails).
		_ = nc.SetDeadline(time.Now().Add(200 * time.Millisecond))
		if err := wire.ClientHandshake(nc); err != nil {
			_ = nc.Close()
			break
		}
		_ = nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("new connections still accepted during drain")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight transaction finishes cleanly.
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return after in-flight txn committed")
	}
}

// TestIdleReapReleasesLocks is the lock-leak satellite: a session that goes
// silent mid-transaction is reaped, and its row locks become acquirable by a
// fresh session. This is the server-side fix for the paper's §4.1.1 failure
// mode, where an abandoned ad hoc lock blocks everyone else.
func TestIdleReapReleasesLocks(t *testing.T) {
	srv, reg := newTestServer(t, Config{IdleTimeout: 100 * time.Millisecond})

	// Session A locks row 1 and goes silent (client stops sending but keeps
	// the socket open — a zombie, not a crash).
	zombie := dialRaw(t, srv)
	defer zombie.Close()
	rawRoundTrip(t, zombie, &wire.Request{Op: wire.OpBegin})
	resp := rawRoundTrip(t, zombie, &wire.Request{
		Op: wire.OpSelect, Table: "skus", Lock: wire.LockForUpdate,
		Pred: storage.Eq{Col: "id", Val: int64(1)},
	})
	if resp.Code != wire.CodeOK {
		t.Fatalf("zombie lock acquire: %v", resp.Code)
	}

	// A fresh session can lock the row once the reaper has rolled A back.
	// Engine lock timeout is 5s, reap deadline 100ms: success here proves
	// the reap released the lock rather than the wait just timing out.
	c := newTestClient(t, srv, client.Config{})
	start := time.Now()
	err := c.RunTxn(engine.IsolationDefault, func(txn *client.Txn) error {
		_, err := txn.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockForUpdate)
		return err
	})
	if err != nil {
		t.Fatalf("lock after reap: %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("lock acquired only after %v — reap did not release it", waited)
	}
	if v := reg.Counter("server_sessions_reaped_total").Value(); v == 0 {
		t.Error("reap not counted")
	}
}

// TestDeadClientReleasesLocks covers the harder crash: the client process
// dies and its socket closes mid-transaction. The session's next read fails
// immediately and the rollback frees the locks without waiting for the idle
// deadline.
func TestDeadClientReleasesLocks(t *testing.T) {
	srv, _ := newTestServer(t, Config{IdleTimeout: 30 * time.Second})

	dying := dialRaw(t, srv)
	rawRoundTrip(t, dying, &wire.Request{Op: wire.OpBegin})
	rawRoundTrip(t, dying, &wire.Request{
		Op: wire.OpSelect, Table: "skus", Lock: wire.LockForUpdate,
		Pred: storage.Eq{Col: "id", Val: int64(1)},
	})
	_ = dying.Close() // the "crash"

	c := newTestClient(t, srv, client.Config{})
	start := time.Now()
	err := c.RunTxn(engine.IsolationDefault, func(txn *client.Txn) error {
		_, err := txn.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockForUpdate)
		return err
	})
	if err != nil {
		t.Fatalf("lock after client death: %v", err)
	}
	// IdleTimeout is 30s; acquiring in well under that proves the EOF path,
	// not the reaper, released the lock.
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("lock acquired only after %v", waited)
	}
}

// TestDeadClientReleasesSnapshot: a session whose client disconnects
// mid-transaction gives back the transaction's snapshot as well as its
// locks, so the engine's snapshot watermark returns to the current CSN.
func TestDeadClientReleasesSnapshot(t *testing.T) {
	srv, _ := newTestServer(t, Config{IdleTimeout: 30 * time.Second})

	dying := dialRaw(t, srv)
	rawRoundTrip(t, dying, &wire.Request{
		Op: wire.OpSelect, Table: "skus", Begin: true, Iso: uint8(engine.RepeatableRead),
		Pred: storage.Eq{Col: "id", Val: int64(1)},
	})
	if n, _, _ := srv.eng.SnapshotWatermark(); n != 1 {
		t.Fatalf("%d snapshots registered mid-transaction, want 1", n)
	}
	_ = dying.Close()

	deadline := time.Now().Add(3 * time.Second)
	for {
		n, w, csn := srv.eng.SnapshotWatermark()
		if n == 0 && w == csn {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d snapshots registered, watermark %d at CSN %d, after the client died", n, w, csn)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---- raw wire helpers (for sessions the pooled client can't model:
// zombies, crashes, admission probes) ----

func dialRaw(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.ClientHandshake(nc); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	_ = nc.SetDeadline(time.Time{})
	return nc
}

func rawRoundTrip(t *testing.T, nc net.Conn, req *wire.Request) *wire.Response {
	t.Helper()
	frame, err := wire.AppendRequest(wire.StartFrame(nil), req)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(nc, frame); err != nil {
		t.Fatal(err)
	}
	raw, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestOCCOverTheWire pins the optimistic execution mode end to end: an OCC
// BEGIN flag crosses the wire, reads take no locks server-side, a conflicting
// pessimistic commit inside the window surfaces as a retryable
// CodeOCCConflict that unwraps to engine.ErrOCCConflict, and the client's
// RunTxnWith retry loop absorbs it.
func TestOCCOverTheWire(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	c := newTestClient(t, srv, client.Config{})

	// Open an optimistic transaction and take a snapshot read of row 1.
	occ, err := c.BeginWith(engine.RepeatableRead, client.BeginOpts{OCC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer occ.Rollback()
	if _, err := occ.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockNone); err != nil {
		t.Fatal(err)
	}

	// A pessimistic writer commits to the same row inside the window.
	if err := c.RunTxn(engine.RepeatableRead, func(txn *client.Txn) error {
		_, err := txn.Update("skus", storage.Eq{Col: "id", Val: int64(1)},
			map[string]storage.Value{"qty": storage.Inc(-1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// The optimistic writer's validation must now fail with the typed,
	// retryable conflict — after crossing the wire.
	if _, err := occ.Update("skus", storage.Eq{Col: "id", Val: int64(1)},
		map[string]storage.Value{"qty": storage.Inc(-1)}); err != nil {
		t.Fatal(err)
	}
	err = occ.Commit()
	if !errors.Is(err, engine.ErrOCCConflict) {
		t.Fatalf("commit err = %v, want ErrOCCConflict", err)
	}
	if !wire.IsRetryable(err) {
		t.Fatalf("OCC conflict not retryable across the wire: %v", err)
	}

	// RunTxnWith in OCC mode retries the conflict away.
	if err := c.RunTxnWith(engine.RepeatableRead, client.BeginOpts{OCC: true}, func(txn *client.Txn) error {
		if _, err := txn.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockNone); err != nil {
			return err
		}
		_, err := txn.Update("skus", storage.Eq{Col: "id", Val: int64(1)},
			map[string]storage.Value{"qty": storage.Inc(-1)})
		return err
	}); err != nil {
		t.Fatalf("RunTxnWith(OCC): %v", err)
	}

	// Both the pessimistic and the optimistic decrement landed.
	var qty storage.Value
	if err := c.RunTxn(engine.ReadCommitted, func(txn *client.Txn) error {
		rows, err := txn.Select("skus", storage.Eq{Col: "id", Val: int64(1)}, wire.LockNone)
		if err != nil {
			return err
		}
		qty = rows.Rows[0][2]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if qty != int64(8) {
		t.Fatalf("qty = %v, want 8", qty)
	}
}
