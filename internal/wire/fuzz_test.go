package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"adhoctx/internal/storage"
)

// FuzzDecodeRequest throws arbitrary bytes at the request decoder. Under
// plain `go test` (including -race in CI) the committed seed corpus in
// testdata/fuzz/FuzzDecodeRequest plus the f.Add seeds run as regular test
// cases, so decoder regressions on known-tricky inputs cannot land silently;
// `go test -fuzz=FuzzDecodeRequest ./internal/wire` explores further.
//
// Properties checked: the decoder never panics, and every accepted input
// re-encodes to something the decoder accepts again (decode∘encode is total
// on the accepted set).
func FuzzDecodeRequest(f *testing.F) {
	// Valid frames of every shape.
	seeds := []*Request{
		{Op: OpBegin, Iso: 1},
		{Op: OpCommit},
		{Op: OpPing},
		{Op: OpSelect, Lock: LockForUpdate, Table: "t", Pred: storage.Eq{Col: "id", Val: int64(1)}},
		{Op: OpSelect, Table: "t", Pred: storage.And{
			storage.Range{Col: "x", Lo: int64(0), Hi: int64(9), IncHi: true},
			storage.Eq{Col: "s", Val: "v"},
		}},
		{Op: OpInsert, Table: "t", Cols: []string{"a", "b"}, Vals: []storage.Value{int64(1), nil}},
		{Op: OpUpdate, Table: "t", Pred: storage.All{}, Cols: []string{"n"}, Vals: []storage.Value{storage.Inc(1)}},
		{Op: OpDelete, Table: "t", Pred: storage.Eq{Col: "id", Val: int64(2)}},
		{Op: OpKV, Cmd: KVSetNXPX, Key: "k", SVal: "v", TTL: time.Second},
		{Op: OpKV, Cmd: KVWatch, Keys: []string{"a", "b"}},
		// Statements opening their own transaction (begin trailer).
		{Op: OpSelect, Table: "t", Pred: storage.All{}, Begin: true, Iso: 2},
		{Op: OpInsert, Table: "t", Cols: []string{"a"}, Vals: []storage.Value{int64(1)}, Begin: true, OCC: true},
		{Op: OpUpdate, Table: "t", Pred: storage.All{}, Cols: []string{"n"}, Vals: []storage.Value{storage.Inc(1)},
			Begin: true, ReadOnly: true, MinLSN: 1 << 40},
		{Op: OpDelete, Table: "t", Pred: storage.Eq{Col: "id", Val: int64(2)}, Begin: true, Iso: 1, MinLSN: 3},
	}
	for _, s := range seeds {
		b, err := AppendRequest(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Adversarial shapes: truncations, bomb counts, deep nesting.
	f.Add([]byte{})
	// A begin trailer cut inside its MinLSN, and one with a byte to spare.
	f.Add([]byte{frameRequest, byte(OpDelete), 0x01, 't', predAll, 0x01, beginHasMinLSN, 0, 0, 0})
	f.Add([]byte{frameRequest, byte(OpSelect), 0x00, 0x01, 't', predAll, 0x01, 0x00, 0x00})
	f.Add([]byte{frameRequest, byte(OpSelect), 0x01, 0x01, 'x', predAnd, 0xff, 0xff, 0x03})
	f.Add([]byte{frameRequest, byte(OpInsert), 0x01, 't', 0xfe, 0xff, 0xff, 0xff, 0x0f})
	deep := []byte{frameRequest, byte(OpDelete), 0x01, 't'}
	for i := 0; i < 20; i++ {
		deep = append(deep, predAnd, 0x01)
	}
	f.Add(append(deep, predAll))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := DecodeRequest(data, &req); err != nil {
			return
		}
		reenc, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("accepted request %+v does not re-encode: %v", &req, err)
		}
		var again Request
		if err := DecodeRequest(reenc, &again); err != nil {
			t.Fatalf("re-encoded request rejected: %v (original %x)", err, data)
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the response direction —
// the client decodes these from the network, so the same no-panic/total
// properties apply.
func FuzzDecodeResponse(f *testing.F) {
	seeds := []*Response{
		{},
		{N: 7, Bool: true, Str: "s", TTL: time.Minute},
		{Strs: []string{"a", "b"}},
		{Cols: []string{"id", "v"}, Rows: [][]storage.Value{{int64(1), "x"}}},
		{Code: CodeDeadlock, Msg: "victim"},
	}
	for _, s := range seeds {
		b, err := AppendResponse(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{frameResponse, 0x00, 0x00, respHasRows, 0x02, 0x01, 'a', 0x01, 'b', 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := DecodeResponse(data, &resp); err != nil {
			return
		}
		if _, err := AppendResponse(nil, &resp); err != nil {
			t.Fatalf("accepted response %+v does not re-encode: %v", &resp, err)
		}
	})
}

// rwBuf is an in-memory ReadWriter: reads come from in, writes land in out.
type rwBuf struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (rw *rwBuf) Read(p []byte) (int, error)  { return rw.in.Read(p) }
func (rw *rwBuf) Write(p []byte) (int, error) { return rw.out.Write(p) }

// FuzzHandshake throws arbitrary bytes at both handshake directions — the
// first bytes a server reads from an untrusted socket. Properties: no
// panics; ServerHandshake accepts exactly a well-formed hello at our
// version; a peer with bad magic gets no reply bytes at all (it is not a
// protocol speaker), while a version mismatch is answered with our hello so
// the peer can diagnose.
func FuzzHandshake(f *testing.F) {
	good := helloBytes()
	f.Add(good)
	wrongVer := helloBytes()
	wrongVer[5] = 0xFE
	f.Add(wrongVer)
	badMagic := helloBytes()
	badMagic[0] = 'X'
	f.Add(badMagic)
	f.Add([]byte{})
	f.Add(good[:5]) // truncated mid-hello

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := &rwBuf{in: bytes.NewReader(data)}
		err := ServerHandshake(srv)
		wellFormed := len(data) >= 6 && bytes.Equal(data[:6], helloBytes())
		if (err == nil) != wellFormed {
			t.Fatalf("ServerHandshake err = %v on % x (well-formed = %v)", err, data, wellFormed)
		}
		magicOK := len(data) >= 6 && bytes.Equal(data[:4], helloBytes()[:4])
		switch {
		case magicOK && !bytes.Equal(srv.out.Bytes(), helloBytes()):
			// Both the accept and the version-mismatch paths must reply with
			// our full hello, nothing else.
			t.Fatalf("reply = % x, want our hello", srv.out.Bytes())
		case !magicOK && srv.out.Len() != 0:
			t.Fatalf("non-speaker got %d reply bytes", srv.out.Len())
		}
		if len(data) >= 6 && magicOK && !wellFormed && !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("version skew surfaced as %v, want ErrVersionMismatch", err)
		}

		// Client side: data is the server's reply to our hello.
		cli := &rwBuf{in: bytes.NewReader(data)}
		cerr := ClientHandshake(cli)
		if (cerr == nil) != wellFormed {
			t.Fatalf("ClientHandshake err = %v on % x", cerr, data)
		}
		if !bytes.Equal(cli.out.Bytes(), helloBytes()) {
			t.Fatalf("client sent % x, want its hello", cli.out.Bytes())
		}
	})
}

// helloBytes is the valid wire hello as a slice (test convenience).
func helloBytes() []byte {
	h := hello()
	return h[:]
}

// FuzzDecodeErrorFrame targets the error-frame half of the response decoder
// plus the typed-error mapping the client retry loops depend on. Properties:
// no panics; every accepted error frame yields a *Error whose sentinel
// unwrapping, retryability, and re-encoding are all consistent with its code.
func FuzzDecodeErrorFrame(f *testing.F) {
	for c := CodeDeadlock; c <= CodeInternal; c++ {
		b, err := AppendResponse(nil, &Response{Code: c, Msg: "boom"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Error frame with no message, and truncated-mid-message shapes.
	b, _ := AppendResponse(nil, &Response{Code: CodeSaturated})
	f.Add(b)
	f.Add([]byte{frameResponse, 0x00, 0x01})            // code without message
	f.Add([]byte{frameResponse, 0x00, 0x01, 0x05, 'h'}) // message length lies
	f.Add([]byte{frameResponse, 0xff, 0xff, 0x01, 'x'}) // unknown code
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := DecodeResponse(data, &resp); err != nil {
			return
		}
		if resp.Code == CodeOK {
			return // success frame: FuzzDecodeResponse territory
		}
		rerr := resp.Err()
		we, ok := AsError(rerr)
		if !ok {
			t.Fatalf("error frame code %v produced non-typed error %v", resp.Code, rerr)
		}
		if we.Code != resp.Code {
			t.Fatalf("Err() code %v != frame code %v", we.Code, resp.Code)
		}
		if sent := sentinelOf(we.Code); sent != nil && !errors.Is(rerr, sent) {
			t.Fatalf("code %v does not unwrap to its sentinel %v", we.Code, sent)
		}
		wantRetry := we.Code == CodeDeadlock || we.Code == CodeSerialization ||
			we.Code == CodeOCCConflict || we.Code == CodeSaturated
		if IsRetryable(rerr) != wantRetry {
			t.Fatalf("code %v retryable = %v, want %v", we.Code, IsRetryable(rerr), wantRetry)
		}
		reenc, err := AppendResponse(nil, &resp)
		if err != nil {
			t.Fatalf("accepted error frame does not re-encode: %v", err)
		}
		var again Response
		if err := DecodeResponse(reenc, &again); err != nil {
			t.Fatalf("re-encoded error frame rejected: %v", err)
		}
		if again.Code != resp.Code || again.Msg != resp.Msg {
			t.Fatalf("error frame did not round-trip: %v/%q vs %v/%q", resp.Code, resp.Msg, again.Code, again.Msg)
		}
	})
}
