package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"adhoctx/internal/wal"
)

// The traced run measures each layer from outside, through seams the stack
// already has: client.Config.Dial and server.Config.WrapConn (both ends of
// every connection), engine.Config.WALDevice (the disk under the WAL) and
// wal.Log.SetShipper (replication). Each seam appends fixed-size records to
// a buffer only it writes; spans.go turns the records into a span tree after
// the window. All times are nanoseconds since tracer.epoch.

// tracer owns the recorders of one traced window.
type tracer struct {
	epoch time.Time

	mu          sync.Mutex
	clientConns map[string]*tracedConn // by client-side local address
	serverConns map[string]*tracedConn // by server-side remote address

	clients []*clientRecorder
	leader  *timedDevice
	follow  *timedDevice
	ships   []interval // guarded by mu
}

func newTracer(clients int) *tracer {
	tr := &tracer{
		epoch:       time.Now(),
		clientConns: make(map[string]*tracedConn),
		serverConns: make(map[string]*tracedConn),
	}
	for i := 0; i < clients; i++ {
		tr.clients = append(tr.clients, &clientRecorder{tr: tr, client: i})
	}
	return tr
}

func (tr *tracer) since() int64 { return int64(time.Since(tr.epoch)) }

// interval is one timed event at a seam; n carries its size (bytes, records).
type interval struct {
	start, end int64
	n          int64
}

// ---- client calls ----

type callKind uint8

const (
	callBegin    callKind = iota // RunTxnWith entry -> first callback entry
	callSelect                   // Txn.Select
	callUpdate                   // Txn.Update
	callInsert                   // Txn.Insert
	callCommit                   // last callback return -> RunTxnWith return
	callRetryGap                 // failed attempt's callback return -> next callback entry
)

var callNames = [...]string{"client.begin", "client.select", "client.update", "client.insert", "client.commit", "client.retry_gap"}

// callRec is one timed client-side step of logical transaction seq.
type callRec struct {
	seq        int32
	kind       callKind
	start, end int64
}

// txnRec is one logical transaction: the root span.
type txnRec struct {
	seq        int32
	start, end int64
}

// clientRecorder collects one client goroutine's records. A nil recorder is
// the untraced path: every method is a no-op.
type clientRecorder struct {
	tr     *tracer
	client int
	seq    int32
	calls  []callRec
	txns   []txnRec
}

func (r *clientRecorder) now() int64 {
	if r == nil {
		return 0
	}
	return r.tr.since()
}

func (r *clientRecorder) span(kind callKind, start, end int64) {
	if r != nil {
		r.calls = append(r.calls, callRec{seq: r.seq, kind: kind, start: start, end: end})
	}
}

// ---- connections ----

// frameRec is one request/response exchange seen at one end of a connection.
// At the client end it runs from the first request byte written to the last
// response byte read; at the server end from the last request byte read to
// the last response byte written. The k-th record of a client-end connection
// and the k-th of its server end are the same exchange.
type frameRec struct {
	start, end int64
	op         uint8
	bytes      int32 // request + response, headers included
}

// captureFrames bounds the payloads kept per connection for the codec replay.
const captureFrames = 500

// tracedConn wraps one end of a connection and parses the frame stream that
// passes through it. One goroutine uses a connection at a time (the pool
// hands it over through a channel), so it needs no lock.
type tracedConn struct {
	net.Conn
	tr     *tracer
	server bool
	in     frameScanner
	out    frameScanner
	cur    frameRec
	frames []frameRec

	// reqs and resps keep the first captureFrames payloads (client end only).
	reqs, resps [][]byte
}

const handshakeBytes = 6 // magic + version, once in each direction

func (tr *tracer) wrap(c net.Conn, server bool) net.Conn {
	tc := &tracedConn{Conn: c, tr: tr, server: server}
	tc.in.skip, tc.out.skip = handshakeBytes, handshakeBytes
	tr.mu.Lock()
	if server {
		tr.serverConns[c.RemoteAddr().String()] = tc
	} else {
		tc.in.keep, tc.out.keep = true, true
		tr.clientConns[c.LocalAddr().String()] = tc
	}
	tr.mu.Unlock()
	return tc
}

func (tr *tracer) wrapServer(c net.Conn) net.Conn { return tr.wrap(c, true) }

func (tr *tracer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return tr.wrap(c, false), nil
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n], func(head [2]byte, size int, payload []byte) {
		c.cur.bytes += int32(size)
		if c.server {
			c.cur.op = head[1]
			c.cur.start = c.tr.since()
			return
		}
		if payload != nil {
			c.resps = append(c.resps, payload)
			c.in.keep = len(c.resps) < captureFrames
		}
		c.finish()
	})
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.server && c.out.atBoundary() {
		c.cur.start = c.tr.since()
	}
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n], func(head [2]byte, size int, payload []byte) {
		c.cur.bytes += int32(size)
		if !c.server {
			c.cur.op = head[1]
			if payload != nil {
				c.reqs = append(c.reqs, payload)
				c.out.keep = len(c.reqs) < captureFrames
			}
			return
		}
		c.finish()
	})
	return n, err
}

func (c *tracedConn) finish() {
	c.cur.end = c.tr.since()
	c.frames = append(c.frames, c.cur)
	c.cur = frameRec{}
}

// frameScanner follows one direction of a connection's byte stream: the
// handshake, then 4-byte big-endian length prefixes each followed by that
// many payload bytes.
type frameScanner struct {
	skip    int // handshake bytes still to pass
	keep    bool
	hdr     [4]byte
	nhdr    int
	left    int // payload bytes still expected
	size    int
	head    [2]byte
	nhead   int
	payload []byte
	inFrame bool
}

// atBoundary reports whether the next byte starts a new frame.
func (s *frameScanner) atBoundary() bool { return s.skip == 0 && s.nhdr == 0 && !s.inFrame }

// feed consumes p, calling done once per completed frame with the first two
// payload bytes, the frame's size on the wire, and (when keeping) a copy of
// the payload.
func (s *frameScanner) feed(p []byte, done func(head [2]byte, size int, payload []byte)) {
	for len(p) > 0 {
		if s.skip > 0 {
			n := min(s.skip, len(p))
			s.skip -= n
			p = p[n:]
			continue
		}
		if !s.inFrame {
			n := copy(s.hdr[s.nhdr:], p)
			s.nhdr += n
			p = p[n:]
			if s.nhdr < len(s.hdr) {
				return
			}
			s.left = int(binary.BigEndian.Uint32(s.hdr[:]))
			s.size = len(s.hdr) + s.left
			s.nhdr, s.nhead, s.inFrame = 0, 0, true
			s.payload = nil
			if s.keep {
				s.payload = make([]byte, 0, s.left)
			}
		}
		n := min(s.left, len(p))
		for i := 0; i < n && s.nhead < len(s.head); i++ {
			s.head[s.nhead] = p[i]
			s.nhead++
		}
		if s.keep {
			s.payload = append(s.payload, p[:n]...)
		}
		s.left -= n
		p = p[n:]
		if s.left == 0 {
			s.inFrame = false
			done(s.head, s.size, s.payload)
		}
	}
}

// ---- WAL device ----

// timedDevice wraps the disk store under a WAL and times every Append and
// Sync handed to it. A sync's n is the bytes staged since the previous one;
// syncs that find nothing staged are not recorded.
type timedDevice struct {
	dev wal.Device
	tr  *tracer

	mu      sync.Mutex
	staged  int64
	appends []interval
	syncs   []interval
}

func (d *timedDevice) Append(p []byte) error {
	start := d.tr.since()
	err := d.dev.Append(p)
	end := d.tr.since()
	d.mu.Lock()
	d.staged += int64(len(p))
	d.appends = append(d.appends, interval{start: start, end: end, n: int64(len(p))})
	d.mu.Unlock()
	return err
}

func (d *timedDevice) Sync() error {
	d.mu.Lock()
	staged := d.staged
	d.staged = 0
	d.mu.Unlock()
	start := d.tr.since()
	err := d.dev.Sync()
	end := d.tr.since()
	if staged > 0 {
		d.mu.Lock()
		d.syncs = append(d.syncs, interval{start: start, end: end, n: staged})
		d.mu.Unlock()
	}
	return err
}
