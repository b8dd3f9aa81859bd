package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
)

func mustEncodeReq(t *testing.T, r *Request) []byte {
	t.Helper()
	b, err := AppendRequest(nil, r)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	return b
}

func roundTripReq(t *testing.T, r *Request) *Request {
	t.Helper()
	var out Request
	if err := DecodeRequest(mustEncodeReq(t, r), &out); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return &out
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpBegin, Iso: uint8(engine.Serializable)},
		{Op: OpBegin, Iso: uint8(engine.RepeatableRead), OCC: true},
		{Op: OpBegin, ReadOnly: true, MinLSN: 99, OCC: true},
		{Op: OpCommit},
		{Op: OpRollback},
		{Op: OpPing},
		{Op: OpSelect, Lock: LockForUpdate, Table: "skus", Pred: storage.Eq{Col: "id", Val: int64(7)}},
		{Op: OpSelect, Table: "orders", Pred: storage.And{
			storage.Eq{Col: "user", Val: "alice"},
			storage.Range{Col: "total", Lo: float64(1.5), Hi: float64(9.5), IncLo: true},
		}},
		{Op: OpSelect, Table: "all", Pred: storage.All{}},
		{Op: OpInsert, Table: "skus", Cols: []string{"name", "qty", "active", "when", "note"},
			Vals: []storage.Value{"widget", int64(3), true, time.Unix(0, 1234567890), nil}},
		{Op: OpUpdate, Table: "skus", Pred: storage.Eq{Col: "id", Val: int64(1)},
			Cols: []string{"qty"}, Vals: []storage.Value{storage.Inc(-1)}},
		{Op: OpDelete, Table: "skus", Pred: storage.Range{Col: "id", Lo: int64(5), IncLo: true}},
		{Op: OpKV, Cmd: KVSetNXPX, Key: "lock:1", SVal: "token", TTL: time.Minute},
		{Op: OpKV, Cmd: KVWatch, Keys: []string{"a", "b", "c"}},
		{Op: OpKV, Cmd: KVExec},
	}
	for _, c := range cases {
		got := roundTripReq(t, &c)
		if !reflect.DeepEqual(got, &c) {
			t.Errorf("round trip %s:\n got %+v\nwant %+v", c.Op, got, &c)
		}
	}
}

// statementRequests is one request of each statement op: the four that may
// carry a begin trailer.
func statementRequests() []Request {
	return []Request{
		{Op: OpSelect, Lock: LockForUpdate, Table: "skus", Pred: storage.Eq{Col: "id", Val: int64(7)}},
		{Op: OpInsert, Table: "skus", Cols: []string{"name", "qty"}, Vals: []storage.Value{"widget", int64(3)}},
		{Op: OpUpdate, Table: "skus", Pred: storage.Eq{Col: "id", Val: int64(1)},
			Cols: []string{"qty"}, Vals: []storage.Value{storage.Inc(-1)}},
		{Op: OpDelete, Table: "skus", Pred: storage.Range{Col: "id", Lo: int64(5), IncLo: true}},
	}
}

// beginTrailers is the begin a statement may carry, in each encoded shape:
// none, the two fixed bytes, and the two bytes plus MinLSN.
func beginTrailers() []Request {
	return []Request{
		{},
		{Begin: true, Iso: uint8(engine.RepeatableRead)},
		{Begin: true, Iso: uint8(engine.Serializable), OCC: true},
		{Begin: true, ReadOnly: true, MinLSN: 99},
	}
}

func withBegin(stmt, begin Request) Request {
	stmt.Begin, stmt.Iso = begin.Begin, begin.Iso
	stmt.ReadOnly, stmt.MinLSN, stmt.OCC = begin.ReadOnly, begin.MinLSN, begin.OCC
	return stmt
}

// TestBeginTrailerRoundTrip: every statement op round-trips with and without
// the begin riding on it; the trailer is byte for byte what OpBegin carries,
// appended after the statement body, so payload byte 1 is still the
// statement's Op (metrics and the benchmark tracer bin by it).
func TestBeginTrailerRoundTrip(t *testing.T) {
	for _, stmt := range statementRequests() {
		bare := mustEncodeReq(t, &stmt)
		for _, begin := range beginTrailers() {
			c := withBegin(stmt, begin)
			enc := mustEncodeReq(t, &c)
			if got := roundTripReq(t, &c); !reflect.DeepEqual(got, &c) {
				t.Errorf("round trip %s begin=%v:\n got %+v\nwant %+v", c.Op, c.Begin, got, &c)
			}
			if Op(enc[1]) != stmt.Op {
				t.Errorf("%s with begin: payload byte 1 = %d, want the statement op", stmt.Op, enc[1])
			}
			var trailer []byte
			if begin.Begin {
				begin.Op, begin.Begin = OpBegin, false
				trailer = mustEncodeReq(t, &begin)[2:] // OpBegin's body
			}
			if want := append(append([]byte(nil), bare...), trailer...); !bytes.Equal(enc, want) {
				t.Errorf("%s begin=%v: encoded %x, want statement+OpBegin body %x", stmt.Op, c.Begin, enc, want)
			}
		}
	}
}

// TestBeginTrailerMalformed: a trailer cut short or with bytes to spare is a
// typed CodeBadRequest, and only statements may carry one.
func TestBeginTrailerMalformed(t *testing.T) {
	for _, stmt := range statementRequests() {
		bare := mustEncodeReq(t, &stmt)
		c := withBegin(stmt, Request{Begin: true, Iso: 1, ReadOnly: true, MinLSN: 7})
		full := mustEncodeReq(t, &c)
		bad := map[string][]byte{
			"isolation only":      full[:len(bare)+1],
			"min lsn cut short":   full[:len(full)-1],
			"min lsn missing":     full[:len(bare)+2],
			"byte after trailer":  append(append([]byte(nil), full...), 0),
			"bytes after minimal": append(append([]byte(nil), bare...), 1, 0, 0),
		}
		for name, b := range bad {
			var r Request
			err := DecodeRequest(b, &r)
			if we, ok := AsError(err); !ok || we.Code != CodeBadRequest {
				t.Errorf("%s, %s: err = %v, want CodeBadRequest", stmt.Op, name, err)
			}
		}
	}
	for _, op := range []Op{OpCommit, OpRollback, OpPing, OpKV} {
		if _, err := AppendRequest(nil, &Request{Op: op, Begin: true}); err == nil {
			t.Errorf("%s: encoder accepted a begin on a non-statement", op)
		}
	}
	// Bytes after a non-statement's body are still just trailing bytes.
	var r Request
	if err := DecodeRequest(append(mustEncodeReq(t, &Request{Op: OpCommit}), 1, 0), &r); err == nil || r.Begin {
		t.Errorf("COMMIT with a begin trailer: err = %v, Begin = %v", err, r.Begin)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{},
		{N: 42},
		{Bool: true, Str: "v", TTL: time.Second},
		{Strs: []string{"m1", "m2"}},
		{Cols: []string{"id", "qty"}, Rows: [][]storage.Value{
			{int64(1), int64(10)},
			{int64(2), nil},
		}},
		{Cols: []string{"id"}, Rows: nil},
		{Code: CodeDeadlock, Msg: "deadlock; transaction rolled back"},
		{Code: CodeSaturated, Msg: "server at capacity"},
	}
	for i, c := range cases {
		b, err := AppendResponse(nil, &c)
		if err != nil {
			t.Fatalf("case %d: AppendResponse: %v", i, err)
		}
		var got Response
		if err := DecodeResponse(b, &got); err != nil {
			t.Fatalf("case %d: DecodeResponse: %v", i, err)
		}
		if !reflect.DeepEqual(&got, &c) {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, &got, &c)
		}
	}
}

// TestErrorRoundTripsEngineSentinels is the retry contract: an engine error
// crossing the wire must still satisfy errors.Is against its sentinel.
func TestErrorRoundTripsEngineSentinels(t *testing.T) {
	sentinels := []error{
		engine.ErrDeadlock, engine.ErrSerialization, engine.ErrLockTimeout,
		engine.ErrTxnDone, engine.ErrConnLost, engine.ErrDuplicateKey, engine.ErrNoTable,
	}
	for _, want := range sentinels {
		code := CodeOf(want)
		if code == CodeOK || code == CodeInternal {
			t.Fatalf("CodeOf(%v) = %v", want, code)
		}
		resp := Response{Code: code, Msg: want.Error()}
		b, err := AppendResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if err := DecodeResponse(b, &got); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(got.Err(), want) {
			t.Errorf("code %v does not unwrap to %v", code, want)
		}
	}
	if !IsRetryable(&Error{Code: CodeDeadlock}) || !IsRetryable(&Error{Code: CodeSerialization}) ||
		!IsRetryable(&Error{Code: CodeSaturated}) {
		t.Error("deadlock/serialization/saturated must be retryable")
	}
	if IsRetryable(&Error{Code: CodeLockTimeout}) || IsRetryable(&Error{Code: CodeDuplicateKey}) {
		t.Error("lock timeout / duplicate key must not be retryable")
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{frameRequest, byte(OpPing)}
	if err := WriteFrame(&buf, append(StartFrame(nil), payload...)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame = %x, want %x", got, payload)
	}

	// Oversized length prefix must be rejected before any allocation.
	big := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(big), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v", err)
	}
	if err := WriteFrame(&buf, make([]byte, frameHeaderLen+MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: err = %v", err)
	}
	// A buffer that never went through StartFrame has no prefix to fill.
	if err := WriteFrame(&buf, payload[:2]); err == nil {
		t.Fatal("WriteFrame accepted a frame shorter than its prefix")
	}
}

// writeCounter counts Write calls: each is a syscall and, on a TCP_NODELAY
// socket, a segment and a peer wake-up.
type writeCounter struct {
	writes int
	bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFrameIsOneWrite pins the single-write framing for every encoder: the
// length prefix is reserved in the encoder's own buffer, so prefix and
// payload leave together, and re-using the buffer allocates nothing.
func TestFrameIsOneWrite(t *testing.T) {
	req := &Request{
		Op: OpSelect, Lock: LockForUpdate, Table: "lock_rows", Pred: storage.Eq{Col: "id", Val: int64(1)},
		Begin: true, Iso: 2, MinLSN: 9,
	}
	resp := &Response{Cols: []string{"id"}, Rows: [][]storage.Value{{int64(1)}}}
	repl := &ReplFrame{Kind: ReplBatch, Epoch: 1, FirstLSN: 3, LastLSN: 4, Raw: []byte("wal bytes")}
	encoders := map[string]func(b []byte) ([]byte, error){
		"request":  func(b []byte) ([]byte, error) { return AppendRequest(b, req) },
		"response": func(b []byte) ([]byte, error) { return AppendResponse(b, resp) },
		"repl":     func(b []byte) ([]byte, error) { return AppendReplFrame(b, repl) },
	}
	for name, enc := range encoders {
		var w writeCounter
		var buf []byte
		send := func() {
			var err error
			if buf, err = enc(StartFrame(buf)); err != nil {
				t.Fatal(err)
			}
			if err = WriteFrame(&w, buf); err != nil {
				t.Fatal(err)
			}
		}
		send()
		if w.writes != 1 {
			t.Errorf("%s: frame took %d Writes, want 1", name, w.writes)
		}
		want, err := enc(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&w, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: frame read back as %x (%v), want %x", name, got, err, want)
		}
		w.Buffer.Grow(1 << 12) // the sink must not be what allocates
		if allocs := testing.AllocsPerRun(100, func() { w.Reset(); send() }); allocs > 0 {
			t.Errorf("%s: framing a warmed buffer: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestHandshake(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- ServerHandshake(s) }()
	if err := ClientHandshake(c); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
}

func TestHandshakeRejectsVersionSkew(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	go func() {
		// A v999 client.
		_, _ = c.Write([]byte{'A', 'H', 'T', 'X', 0x03, 0xe7})
		var reply [6]byte
		_, _ = c.Read(reply[:])
	}()
	if err := ServerHandshake(s); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("server accepted v999 client: %v", err)
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	go func() {
		_, _ = c.Write([]byte("GET / »")[:6])
	}()
	if err := ServerHandshake(s); err == nil {
		t.Fatal("server accepted an HTTP-ish client")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                                   // empty
		{frameResponse},                      // response bytes to a request decoder
		{frameRequest},                       // missing op
		{frameRequest, 0xee},                 // unknown op
		{frameRequest, byte(OpSelect), 0x01}, // truncated table
		{frameRequest, byte(OpSelect), 0x01, 0x01, 'x'},       // missing pred
		{frameRequest, byte(OpSelect), 0x01, 0x01, 'x', 0xff}, // bad pred tag
		{frameRequest, byte(OpPing), 0x00},                    // trailing bytes
		{frameRequest, byte(OpInsert), 0x01, 'x', 0xff, 0xff}, // bomb count
	}
	var r Request
	for i, b := range cases {
		err := DecodeRequest(b, &r)
		if err == nil {
			t.Errorf("case %d (%x): decode accepted garbage", i, b)
			continue
		}
		we, ok := AsError(err)
		if !ok || we.Code != CodeBadRequest {
			t.Errorf("case %d: err = %v, want CodeBadRequest", i, err)
		}
	}
}

// TestDecodeResponseRejectsRowsWithoutColumns pins the decode-bomb guard on
// the client path: a crafted small frame claiming zero columns and a huge
// row count must be rejected, not expanded into ~1M empty rows.
func TestDecodeResponseRejectsRowsWithoutColumns(t *testing.T) {
	b := []byte{frameResponse}
	b = appendUint16(b, uint16(CodeOK))
	b = append(b, respHasRows)
	b = binary.AppendUvarint(b, 0)     // zero columns
	b = binary.AppendUvarint(b, 1<<20) // a million rows
	var resp Response
	if err := DecodeResponse(b, &resp); err == nil {
		t.Fatal("decode accepted rows-without-columns frame")
	}
	if len(resp.Rows) != 0 {
		t.Fatalf("decoder materialized %d rows from a bomb frame", len(resp.Rows))
	}
}

// TestCodecAllocBounds pins the documented allocation contract: zero
// encode allocations on a warmed buffer, and a small content-bounded number
// of decode allocations.
func TestCodecAllocBounds(t *testing.T) {
	begin := mustEncodeReq(t, &Request{Op: OpBegin, Iso: 2})
	sel := mustEncodeReq(t, &Request{
		Op: OpSelect, Lock: LockForUpdate, Table: "lock_rows",
		Pred: storage.Eq{Col: "id", Val: int64(1)},
	})
	var req Request
	var buf []byte

	selReq := &Request{
		Op: OpSelect, Lock: LockForUpdate, Table: "lock_rows",
		Pred: storage.Eq{Col: "id", Val: int64(1)},
	}
	encode := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendRequest(buf[:0], selReq)
		if err != nil {
			t.Fatal(err)
		}
	})
	if encode > 0 {
		t.Errorf("select encode: %v allocs/op on a warmed buffer, want 0", encode)
	}

	if got := testing.AllocsPerRun(200, func() {
		if err := DecodeRequest(begin, &req); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("begin decode: %v allocs/op, want <= 2", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := DecodeRequest(sel, &req); err != nil {
			t.Fatal(err)
		}
	}); got > 8 {
		t.Errorf("select decode: %v allocs/op, want <= 8", got)
	}

	// The begin trailer is fixed-width fields appended to the same buffer
	// and decoded into the same struct: every statement op still encodes
	// with zero allocations, and decodes with exactly as many as without it.
	for _, stmt := range statementRequests() {
		decodeAllocs := func(r *Request) float64 {
			payload := mustEncodeReq(t, r)
			return testing.AllocsPerRun(200, func() {
				if err := DecodeRequest(payload, &req); err != nil {
					t.Fatal(err)
				}
			})
		}
		bare := decodeAllocs(&stmt)
		for _, begin := range beginTrailers() {
			c := withBegin(stmt, begin)
			if got := testing.AllocsPerRun(200, func() {
				var err error
				if buf, err = AppendRequest(StartFrame(buf), &c); err != nil {
					t.Fatal(err)
				}
			}); got > 0 {
				t.Errorf("%s begin=%v encode: %v allocs/op on a warmed buffer, want 0", c.Op, c.Begin, got)
			}
			if got := decodeAllocs(&c); got != bare {
				t.Errorf("%s begin=%v decode: %v allocs/op, want %v (same as without the trailer)", c.Op, c.Begin, got, bare)
			}
		}
	}
}

// BenchmarkRoundTrip measures one request+response encode/decode cycle — the
// per-request codec cost a serving hot path pays twice (once per side).
func BenchmarkRoundTrip(b *testing.B) {
	req := &Request{
		Op: OpSelect, Lock: LockForUpdate, Table: "lock_rows",
		Pred:  storage.Eq{Col: "id", Val: int64(1)},
		Begin: true, Iso: uint8(engine.RepeatableRead),
	}
	resp := &Response{Cols: []string{"id"}, Rows: [][]storage.Value{{int64(1)}}}
	var reqBuf, respBuf []byte
	var dr Request
	var dp Response
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Encode as the connections do: behind the reserved length prefix.
		var err error
		if reqBuf, err = AppendRequest(StartFrame(reqBuf), req); err != nil {
			b.Fatal(err)
		}
		if err = DecodeRequest(reqBuf[frameHeaderLen:], &dr); err != nil {
			b.Fatal(err)
		}
		if respBuf, err = AppendResponse(StartFrame(respBuf), resp); err != nil {
			b.Fatal(err)
		}
		if err = DecodeResponse(respBuf[frameHeaderLen:], &dp); err != nil {
			b.Fatal(err)
		}
	}
}
