package client_test

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/server"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// frameLog records, through the Config.Dial seam, every dial and every frame
// the client writes. Each Write after the six-byte hello must be exactly one
// whole frame: that is the single-write framing, seen from outside.
type frameLog struct {
	mu    sync.Mutex
	dials int
	ops   []wire.Op
	torn  int // Writes that were not exactly one frame
}

type loggedConn struct {
	net.Conn
	log   *frameLog
	hello bool
}

func (c *loggedConn) Write(p []byte) (int, error) {
	if !c.hello {
		c.hello = true
		return c.Conn.Write(p)
	}
	c.log.mu.Lock()
	if len(p) < 6 || int(binary.BigEndian.Uint32(p)) != len(p)-4 {
		c.log.torn++
	} else {
		c.log.ops = append(c.log.ops, wire.Op(p[5]))
	}
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

func (l *frameLog) wrap(nc net.Conn) net.Conn {
	l.mu.Lock()
	l.dials++
	l.mu.Unlock()
	return &loggedConn{Conn: nc, log: l}
}

func (l *frameLog) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return l.wrap(nc), nil
}

func (l *frameLog) snapshot() (dials int, ops []wire.Op, torn int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dials, append([]wire.Op(nil), l.ops...), l.torn
}

// newStack serves a one-row "skus" table (qty 0) and returns a client whose
// traffic is logged.
func newStack(t *testing.T, scfg server.Config, ccfg client.Config) (*client.Client, *engine.Engine, *frameLog) {
	t.Helper()
	eng := engine.New(engine.Config{Dialect: engine.Postgres, LockTimeout: 2 * time.Second})
	eng.CreateTable(storage.NewSchema("skus", storage.Column{Name: "qty", Type: storage.TInt}))
	if err := eng.Run(engine.IsolationDefault, func(txn *engine.Txn) error {
		_, err := txn.Insert("skus", map[string]storage.Value{"qty": int64(0)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, nil, scfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	log := &frameLog{}
	ccfg.Addr = srv.Addr().String()
	if ccfg.Dial == nil {
		ccfg.Dial = log.dial
	}
	cli := client.New(ccfg)
	t.Cleanup(func() { _ = cli.Close() })
	return cli, eng, log
}

func qty(t *testing.T, eng *engine.Engine) storage.Value {
	t.Helper()
	var v storage.Value
	if err := eng.Run(engine.IsolationDefault, func(txn *engine.Txn) error {
		rows, err := txn.Select("skus", storage.ByPK(1))
		if err == nil {
			v = rows[0][1]
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return v
}

func increment(txn *client.Txn) error {
	_, err := txn.Update("skus", storage.ByPK(1), map[string]storage.Value{"qty": storage.Inc(1)})
	return err
}

// TestEmptyTxnSendsNothing: Begin checks out no connection and sends no
// frame, so a transaction that ends before its first statement costs nothing.
func TestEmptyTxnSendsNothing(t *testing.T) {
	cli, _, log := newStack(t, server.Config{}, client.Config{})
	for _, end := range []func(*client.Txn) error{(*client.Txn).Commit, (*client.Txn).Rollback} {
		txn, err := cli.Begin(engine.IsolationDefault)
		if err != nil {
			t.Fatal(err)
		}
		if txn.Opened() {
			t.Fatal("transaction opened before its first statement")
		}
		if err := end(txn); err != nil {
			t.Fatalf("ending an empty transaction: %v", err)
		}
		if !txn.Done() || txn.CommitLSN() != 0 {
			t.Fatalf("empty transaction: done=%v lsn=%d", txn.Done(), txn.CommitLSN())
		}
		if err := increment(txn); !errors.Is(err, engine.ErrTxnDone) {
			t.Fatalf("statement on the ended handle: %v, want ErrTxnDone", err)
		}
	}
	if err := cli.RunTxn(engine.IsolationDefault, func(*client.Txn) error { return nil }); err != nil {
		t.Fatalf("empty RunTxn: %v", err)
	}
	if dials, ops, _ := log.snapshot(); dials != 0 || len(ops) != 0 {
		t.Fatalf("empty transactions dialed %d connections and sent %v", dials, ops)
	}
}

// TestBeginRidesOnFirstStatement: a two-statement transaction is three
// frames — statement, statement, COMMIT — each a single Write, and OpBegin is
// never sent.
func TestBeginRidesOnFirstStatement(t *testing.T) {
	cli, eng, log := newStack(t, server.Config{}, client.Config{})
	for i := 0; i < 2; i++ { // the second runs on the pooled connection
		err := cli.RunTxn(engine.RepeatableRead, func(txn *client.Txn) error {
			if _, err := txn.Select("skus", storage.ByPK(1), wire.LockForUpdate); err != nil {
				return err
			}
			return increment(txn)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dials, ops, torn := log.snapshot()
	want := []wire.Op{wire.OpSelect, wire.OpUpdate, wire.OpCommit, wire.OpSelect, wire.OpUpdate, wire.OpCommit}
	if dials != 1 || torn != 0 || len(ops) != len(want) {
		t.Fatalf("dials %d, torn writes %d, frames %v; want 1, 0, %v", dials, torn, ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("frames %v, want %v", ops, want)
		}
	}
	if got := qty(t, eng); got != int64(2) {
		t.Fatalf("qty = %v, want 2", got)
	}
}

// TestSaturatedOpeningFrameRetries: admission rejection now answers the
// transaction's first statement. The client retries that frame on a fresh
// connection after a backoff, and the statement runs exactly once.
func TestSaturatedOpeningFrameRetries(t *testing.T) {
	log := &frameLog{}
	var rejected atomic.Int32
	var sawBegin atomic.Bool
	// The first dial reaches a peer that handshakes and answers the opening
	// frame with CodeSaturated, as server.reject does; later dials reach the
	// real server.
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		if rejected.Add(1) > 1 {
			return log.dial(addr, timeout)
		}
		cliEnd, srvEnd := net.Pipe()
		go func() {
			defer srvEnd.Close()
			if err := wire.ServerHandshake(srvEnd); err != nil {
				return
			}
			payload, err := wire.ReadFrame(srvEnd, nil)
			if err != nil {
				return
			}
			var req wire.Request
			if wire.DecodeRequest(payload, &req) == nil {
				sawBegin.Store(req.Begin && req.Op == wire.OpUpdate)
			}
			frame, _ := wire.AppendResponse(wire.StartFrame(nil), &wire.Response{Code: wire.CodeSaturated, Msg: "full"})
			_ = wire.WriteFrame(srvEnd, frame)
		}()
		return log.wrap(cliEnd), nil
	}
	cli, eng, _ := newStack(t, server.Config{}, client.Config{Dial: dial, BackoffBase: time.Millisecond})

	txn, err := cli.Begin(engine.IsolationDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := increment(txn); err != nil {
		t.Fatalf("statement behind a saturated first dial: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if !sawBegin.Load() {
		t.Fatal("the rejected opening frame was not the begin-carrying statement")
	}
	if dials, _, _ := log.snapshot(); dials != 2 || cli.Retries() != 1 {
		t.Fatalf("dials %d, retries %d; want 2 and 1", dials, cli.Retries())
	}
	if got := qty(t, eng); got != int64(1) {
		t.Fatalf("qty = %v: the statement did not run exactly once", got)
	}
}

// TestBeginRejectionPoolsCleanConn: a begin refused with a redirect code
// finishes the handle without opening anything, and the connection goes back
// to the pool with no transaction on its session — the next transaction on
// it must not see CodeTxnOpen.
func TestBeginRejectionPoolsCleanConn(t *testing.T) {
	cases := []struct {
		name string
		scfg server.Config
		opts client.BeginOpts
		stmt func(*client.Txn) error
		code wire.Code
	}{
		{
			name: "stale read",
			scfg: server.Config{AppliedLSN: func() uint64 { return 4 }},
			opts: client.BeginOpts{ReadOnly: true, MinLSN: 9},
			stmt: func(txn *client.Txn) error {
				_, err := txn.Select("skus", storage.ByPK(1), wire.LockNone)
				return err
			},
			code: wire.CodeStaleRead,
		},
		{
			name: "not leader",
			scfg: server.Config{Writable: func() bool { return false }},
			stmt: increment,
			code: wire.CodeNotLeader,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, eng, log := newStack(t, tc.scfg, client.Config{PoolSize: 1})
			txn, err := cli.BeginWith(engine.IsolationDefault, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.stmt(txn)
			if we, ok := wire.AsError(err); !ok || we.Code != tc.code {
				t.Fatalf("opening statement: %v, want %v", err, tc.code)
			}
			if !txn.Done() || txn.Opened() {
				t.Fatalf("after a rejected begin: done=%v opened=%v, want true and false", txn.Done(), txn.Opened())
			}
			if err := txn.Rollback(); err != nil {
				t.Fatalf("rollback of the rejected handle: %v", err)
			}

			// A read-only transaction both servers accept, on the same conn.
			err = cli.RunTxnWith(engine.IsolationDefault, client.BeginOpts{ReadOnly: true}, func(txn *client.Txn) error {
				_, err := txn.Select("skus", storage.ByPK(1), wire.LockNone)
				return err
			})
			if err != nil {
				t.Fatalf("next transaction on the pooled connection: %v", err)
			}
			dials, ops, _ := log.snapshot()
			if dials != 1 {
				t.Fatalf("%d dials: the rejected connection was not pooled", dials)
			}
			if len(ops) != 3 { // rejected statement, select, commit: no ROLLBACK for the rejection
				t.Fatalf("frames %v, want the rejected statement, a select and a commit", ops)
			}
			if got := qty(t, eng); got != int64(0) {
				t.Fatalf("qty = %v: a rejected statement ran", got)
			}
		})
	}
}

// TestDrainingServerRetriedOnConnLoss: a server that is draining (killed and
// closing while its replacement starts) answers the opening frame with
// CodeShutdown. Nothing ran, so under RetryConnLost the client retries on a
// fresh connection, like any other lost connection; without it the answer
// is final.
func TestDrainingServerRetriedOnConnLoss(t *testing.T) {
	for _, retry := range []bool{true, false} {
		var dials atomic.Int32
		dial := func(addr string, timeout time.Duration) (net.Conn, error) {
			if dials.Add(1) > 1 {
				return net.DialTimeout("tcp", addr, timeout)
			}
			cliEnd, srvEnd := net.Pipe()
			go func() {
				defer srvEnd.Close()
				if err := wire.ServerHandshake(srvEnd); err != nil {
					return
				}
				if _, err := wire.ReadFrame(srvEnd, nil); err != nil {
					return
				}
				frame, _ := wire.AppendResponse(wire.StartFrame(nil), &wire.Response{Code: wire.CodeShutdown, Msg: "draining"})
				_ = wire.WriteFrame(srvEnd, frame)
			}()
			return cliEnd, nil
		}
		cli, eng, _ := newStack(t, server.Config{}, client.Config{Dial: dial, BackoffBase: time.Millisecond, RetryConnLost: retry})
		err := cli.RunTxn(engine.IsolationDefault, increment)
		want := int64(0)
		if retry {
			want = 1
			if err != nil {
				t.Fatalf("RetryConnLost: a draining server's answer was not retried: %v", err)
			}
		} else if we, ok := wire.AsError(err); !ok || we.Code != wire.CodeShutdown {
			t.Fatalf("without RetryConnLost: %v, want CodeShutdown", err)
		}
		if got := qty(t, eng); got != want {
			t.Fatalf("RetryConnLost=%v: qty = %v, want %d", retry, got, want)
		}
	}
}
