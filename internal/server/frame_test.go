package server

import (
	"net"
	"testing"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// sealedFrame encodes req as the bytes one frame puts on the wire.
func sealedFrame(t *testing.T, req *wire.Request) []byte {
	t.Helper()
	frame, err := wire.AppendRequest(wire.StartFrame(nil), req)
	if err == nil {
		err = wire.SealFrame(frame)
	}
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// readResponse reads one response frame. wire.ReadFrame takes exactly the
// frame's bytes off the socket, so a second response already queued behind
// it stays there for the next call.
func readResponse(t *testing.T, nc net.Conn) *wire.Response {
	t.Helper()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	raw, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// qtyOf reads row 1's qty straight from the engine.
func qtyOf(t *testing.T, srv *Server) storage.Value {
	t.Helper()
	var qty storage.Value
	if err := srv.eng.Run(engine.IsolationDefault, func(txn *engine.Txn) error {
		rows, err := txn.Select("skus", storage.ByPK(1))
		if err == nil {
			qty = rows[0][2] // id, name, qty
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return qty
}

func decrement(begin bool) *wire.Request {
	return &wire.Request{
		Op: wire.OpUpdate, Table: "skus", Pred: storage.ByPK(1),
		Cols: []string{"qty"}, Vals: []storage.Value{storage.Inc(-1)},
		Begin: begin,
	}
}

// TestFrameOneByteAtATime: the session's buffered reader reassembles a frame
// that dribbles in, however the segments fall.
func TestFrameOneByteAtATime(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	nc := dialRaw(t, srv)
	defer nc.Close()

	for _, b := range sealedFrame(t, decrement(true)) {
		if _, err := nc.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if resp := readResponse(t, nc); resp.Code != wire.CodeOK || resp.N != 1 {
		t.Fatalf("dribbled update: code %v, n %d", resp.Code, resp.N)
	}
	if resp := rawRoundTrip(t, nc, &wire.Request{Op: wire.OpCommit}); resp.Code != wire.CodeOK {
		t.Fatalf("commit: %v", resp.Err())
	}
	if got := qtyOf(t, srv); got != int64(9) {
		t.Fatalf("qty = %v, want 9", got)
	}
}

// TestFramesSharingASegment: frames that arrive in one Read are all served,
// in order — what the buffered reader read ahead is the next request, not
// lost bytes.
func TestFramesSharingASegment(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	nc := dialRaw(t, srv)
	defer nc.Close()

	var segment []byte
	segment = append(segment, sealedFrame(t, decrement(true))...)
	segment = append(segment, sealedFrame(t, &wire.Request{
		Op: wire.OpSelect, Table: "skus", Pred: storage.ByPK(1),
	})...)
	segment = append(segment, sealedFrame(t, &wire.Request{Op: wire.OpCommit})...)
	if _, err := nc.Write(segment); err != nil {
		t.Fatal(err)
	}

	if resp := readResponse(t, nc); resp.Code != wire.CodeOK || resp.N != 1 {
		t.Fatalf("1st answer (update): code %v, n %d", resp.Code, resp.N)
	}
	if resp := readResponse(t, nc); resp.Code != wire.CodeOK || len(resp.Rows) != 1 || resp.Rows[0][2] != int64(9) {
		t.Fatalf("2nd answer (select): code %v, rows %v", resp.Code, resp.Rows)
	}
	if resp := readResponse(t, nc); resp.Code != wire.CodeOK || len(resp.Rows) != 0 {
		t.Fatalf("3rd answer (commit): code %v, rows %v", resp.Code, resp.Rows)
	}
}

// TestStatementBeginOnOpenTxn: a statement carrying a begin on a session that
// already has a transaction is answered CodeTxnOpen without running, and the
// open transaction is untouched.
func TestStatementBeginOnOpenTxn(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	nc := dialRaw(t, srv)
	defer nc.Close()

	if resp := rawRoundTrip(t, nc, decrement(true)); resp.Code != wire.CodeOK {
		t.Fatalf("opening update: %v", resp.Err())
	}
	if resp := rawRoundTrip(t, nc, decrement(true)); resp.Code != wire.CodeTxnOpen {
		t.Fatalf("second begin-carrying update: code %v, want txn_open", resp.Code)
	}
	// The first transaction is still there and still usable.
	if resp := rawRoundTrip(t, nc, decrement(false)); resp.Code != wire.CodeOK {
		t.Fatalf("statement on the open txn after the rejection: %v", resp.Err())
	}
	if resp := rawRoundTrip(t, nc, &wire.Request{Op: wire.OpCommit}); resp.Code != wire.CodeOK {
		t.Fatalf("commit: %v", resp.Err())
	}
	// Two decrements ran, not three.
	if got := qtyOf(t, srv); got != int64(8) {
		t.Fatalf("qty = %v, want 8", got)
	}
}

// TestRejectedBeginRunsNoStatement: when the begin riding on a statement is
// refused, its typed error is the answer, the statement does not run, and no
// transaction is left open.
func TestRejectedBeginRunsNoStatement(t *testing.T) {
	t.Run("bad isolation", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		nc := dialRaw(t, srv)
		defer nc.Close()
		req := decrement(true)
		req.Iso = 99
		if resp := rawRoundTrip(t, nc, req); resp.Code != wire.CodeBadRequest {
			t.Fatalf("code %v, want bad_request", resp.Code)
		}
		if resp := rawRoundTrip(t, nc, &wire.Request{Op: wire.OpCommit}); resp.Code != wire.CodeNoTxn {
			t.Fatalf("commit after rejected begin: code %v, want no_txn", resp.Code)
		}
		if got := qtyOf(t, srv); got != int64(10) {
			t.Fatalf("qty = %v: the statement ran", got)
		}
	})
	t.Run("draining", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
		nc := dialRaw(t, srv)
		defer nc.Close()
		// An idle session sits in its read when the drain starts.
		if resp := rawRoundTrip(t, nc, &wire.Request{Op: wire.OpPing}); resp.Code != wire.CodeOK {
			t.Fatal(resp.Err())
		}
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case <-srv.draining:
		case <-time.After(time.Second):
			t.Fatal("drain never started")
		}
		if resp := rawRoundTrip(t, nc, decrement(true)); resp.Code != wire.CodeShutdown {
			t.Fatalf("code %v, want shutdown", resp.Code)
		}
		if err := <-closed; err != nil {
			t.Fatalf("Close: %v", err)
		}
		if got := qtyOf(t, srv); got != int64(10) {
			t.Fatalf("qty = %v: the statement ran", got)
		}
	})
	t.Run("not leader", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{
			Writable:   func() bool { return false },
			LeaderHint: func() string { return "leader:1" },
		})
		nc := dialRaw(t, srv)
		defer nc.Close()
		resp := rawRoundTrip(t, nc, decrement(true))
		if resp.Code != wire.CodeNotLeader || resp.Msg != "leader:1" {
			t.Fatalf("code %v msg %q, want not_leader with the hint", resp.Code, resp.Msg)
		}
		if got := qtyOf(t, srv); got != int64(10) {
			t.Fatalf("qty = %v: the statement ran", got)
		}
	})
	t.Run("stale read", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{AppliedLSN: func() uint64 { return 4 }})
		nc := dialRaw(t, srv)
		defer nc.Close()
		req := &wire.Request{
			Op: wire.OpSelect, Table: "skus", Pred: storage.ByPK(1),
			Begin: true, ReadOnly: true, MinLSN: 5,
		}
		if resp := rawRoundTrip(t, nc, req); resp.Code != wire.CodeStaleRead || len(resp.Rows) != 0 {
			t.Fatalf("code %v rows %v, want stale_read and no rows", resp.Code, resp.Rows)
		}
		// At the floor the same frame is served, begin and statement both.
		req.MinLSN = 4
		if resp := rawRoundTrip(t, nc, req); resp.Code != wire.CodeOK || len(resp.Rows) != 1 {
			t.Fatalf("code %v rows %v, want the row", resp.Code, resp.Rows)
		}
	})
}
