package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"adhoctx/internal/obs"
	"adhoctx/internal/wire"
)

// sinkConn is a net.Conn stub that records writes and serves reads from a
// buffer, so fault decisions can be observed without a real socket.
type sinkConn struct {
	net.Conn // nil: methods below override everything the tests touch
	in       bytes.Reader
	out      bytes.Buffer
	closed   bool
}

func (s *sinkConn) Read(p []byte) (int, error)  { return s.in.Read(p) }
func (s *sinkConn) Write(p []byte) (int, error) { return s.out.Write(p) }
func (s *sinkConn) Close() error                { s.closed = true; return nil }

// trace drives one wrapped conn through a fixed I/O script and returns the
// injected event stream.
func trace(t *testing.T, inj *Injector, writes int) []Event {
	t.Helper()
	sink := &sinkConn{}
	nc := inj.WrapConn(sink)
	payload := []byte("0123456789abcdef")
	for i := 0; i < writes; i++ {
		if sink.closed {
			break
		}
		_, _ = nc.Write(payload)
		buf := make([]byte, 4)
		_, _ = nc.Read(buf)
	}
	return inj.Events()
}

// TestDeterministicSchedule is the replay contract: the same seed and plan
// produce the identical fault stream for the same connection script.
func TestDeterministicSchedule(t *testing.T) {
	plan := Plan{DropPer10k: 400, TruncatePer10k: 400, WriteDelayPer10k: 800,
		ReadDelayPer10k: 800, MaxDelay: time.Microsecond}
	a := trace(t, New(42, plan), 200)
	b := trace(t, New(42, plan), 200)
	if len(a) == 0 {
		t.Fatal("schedule injected nothing; probabilities too low for the script")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(t, New(43, plan), 200)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical fault stream")
	}
}

// TestDisabledPlanUnwrapped: a no-fault plan must return the conn untouched,
// so harnesses can set WrapConn unconditionally.
func TestDisabledPlanUnwrapped(t *testing.T) {
	sink := &sinkConn{}
	if nc := New(1, Plan{}).WrapConn(sink); nc != net.Conn(sink) {
		t.Fatalf("disabled plan wrapped the conn: %T", nc)
	}
	if !(Plan{DropPer10k: 1}).Enabled() {
		t.Fatal("drop-only plan reported disabled")
	}
	// Delay kinds without MaxDelay cannot fire.
	if (Plan{ReadDelayPer10k: 9999}).Enabled() {
		t.Fatal("delay plan with zero MaxDelay reported enabled")
	}
}

// TestTruncateTearsInsideFrame pins the framed-message-boundary property:
// a truncated frame write leaves the peer a valid header and a short body,
// which ReadFrame reports as an unexpected EOF — never a silent short frame.
func TestTruncateTearsInsideFrame(t *testing.T) {
	// Truncation certain, everything else off.
	inj := New(7, Plan{TruncatePer10k: 10000})
	cliRaw, srvRaw := net.Pipe()
	defer srvRaw.Close()
	nc := inj.WrapConn(cliRaw)

	frame := append(wire.StartFrame(nil), bytes.Repeat([]byte{0x01}, 64)...)
	writeErr := make(chan error, 1)
	go func() {
		writeErr <- wire.WriteFrame(nc, frame)
	}()

	_, err := wire.ReadFrame(srvRaw, nil)
	if err == nil {
		t.Fatal("torn frame decoded cleanly")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("torn frame error = %v, want EOF-shaped", err)
	}
	werr := <-writeErr
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("writer error = %v, want ErrInjected", werr)
	}
	if got := inj.Count(Truncate) + inj.Count(Drop); got == 0 {
		t.Fatal("no truncate/drop recorded")
	}
}

// TestTruncateCutsFullRange is the regression test for the truncation
// offset range: cuts must land anywhere in [0, len(p)] — including the
// empty cut (peer sees a crash before the write) and the complete cut
// (every byte delivered, sender sees an error: the ambiguous success) —
// not only strict interior prefixes. Every truncation still closes the
// conn and returns a typed injected error.
func TestTruncateCutsFullRange(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 8)
	seen := make(map[int]bool)
	for id := int64(0); id < 400; id++ {
		inj := New(id, Plan{TruncatePer10k: 10000})
		sink := &sinkConn{}
		nc := inj.WrapConn(sink)
		_, err := nc.Write(payload)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("seed %d: err = %v, want ErrInjected", id, err)
		}
		if !sink.closed {
			t.Fatalf("seed %d: truncate did not close the conn", id)
		}
		cut := sink.out.Len()
		if cut < 0 || cut > len(payload) {
			t.Fatalf("seed %d: cut %d outside [0, %d]", id, cut, len(payload))
		}
		seen[cut] = true
		if n := inj.Count(Truncate); n != 1 {
			t.Fatalf("seed %d: truncate count = %d, want 1", id, n)
		}
	}
	if !seen[0] {
		t.Error("no empty cut in 400 seeds; offset range lost its lower end")
	}
	if !seen[len(payload)] {
		t.Error("no complete cut in 400 seeds; offset range lost its upper end")
	}
	interior := false
	for c := 1; c < len(payload); c++ {
		interior = interior || seen[c]
	}
	if !interior {
		t.Error("no interior cut in 400 seeds")
	}
}

// TestTruncateEmptyWrite: a zero-byte write under certain truncation must
// not panic and still behaves as an injected connection death.
func TestTruncateEmptyWrite(t *testing.T) {
	inj := New(11, Plan{TruncatePer10k: 10000})
	sink := &sinkConn{}
	nc := inj.WrapConn(sink)
	if _, err := nc.Write(nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !sink.closed {
		t.Fatal("conn left open")
	}
}

// TestDropClosesConn: a drop kills the underlying conn and surfaces a typed
// injected error, so the caller takes its connection-loss path.
func TestDropClosesConn(t *testing.T) {
	inj := New(3, Plan{DropPer10k: 10000})
	sink := &sinkConn{}
	nc := inj.WrapConn(sink)
	if _, err := nc.Write([]byte("hello")); !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped write err = %v, want ErrInjected", err)
	}
	if !sink.closed {
		t.Fatal("drop did not close the underlying conn")
	}
	if sink.out.Len() != 0 {
		t.Fatalf("drop leaked %d bytes to the wire", sink.out.Len())
	}
	evs := inj.Events()
	if len(evs) != 1 || evs[0].Kind != Drop || evs[0].Conn != 0 {
		t.Fatalf("events = %v, want one Drop on conn 0", evs)
	}
}

// TestObsCounters: injected faults show up on the wired registry per kind.
func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	inj := New(5, Plan{DropPer10k: 10000})
	inj.WireObs(reg)
	nc := inj.WrapConn(&sinkConn{})
	_, _ = nc.Write([]byte("x"))
	if v := reg.Counter(`faults_injected_total{kind="drop"}`).Value(); v != 1 {
		t.Fatalf("drop counter = %d, want 1", v)
	}
	if inj.Total() != 1 || inj.Counts()[Drop] != 1 {
		t.Fatalf("totals = %d / %v", inj.Total(), inj.Counts())
	}
}
