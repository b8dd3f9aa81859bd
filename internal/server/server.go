// Package server is the networked serving layer over engine.Engine and
// kv.Store: a TCP accept loop speaking the internal/wire protocol, with
// per-connection sessions, admission control, idle-session reaping, and
// graceful drain.
//
// The paper studies ad hoc transactions in client/server web stacks; this
// package supplies the server half of that substrate. Each connection is one
// session — the analogue of a database connection — owning at most one open
// transaction and one KV connection, so connection lifecycle events map
// one-to-one onto transaction lifecycle events: a client that dies
// mid-transaction (the §3.4.2 crash points, seen from the server) has its
// transaction rolled back and its locks released the moment the connection
// breaks or goes idle past the reap deadline. Locks never outlive their
// session.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/kv"
	"adhoctx/internal/obs"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// Config tunes the serving layer. The zero value serves on an ephemeral
// loopback port with the defaults below.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// MaxSessions bounds concurrently admitted sessions (default 64).
	MaxSessions int
	// MaxQueued bounds dials waiting for a session slot; a dial beyond the
	// queue is rejected immediately with CodeSaturated (default MaxSessions).
	MaxQueued int
	// QueueWait bounds how long a queued dial waits for a slot before the
	// typed rejection (default 100ms).
	QueueWait time.Duration
	// IdleTimeout is the idle-session reap deadline: a session that sends no
	// request for this long is closed and its open transaction rolled back,
	// so an abandoned client never leaks locks (default 30s).
	IdleTimeout time.Duration
	// DrainTimeout bounds Close's graceful drain before remaining
	// connections are forced closed (default 5s).
	DrainTimeout time.Duration
	// WrapConn, when non-nil, wraps every accepted connection before the
	// handshake — the seam internal/faults uses to inject connection
	// drops, torn frames, and latency spikes on the server side.
	WrapConn func(net.Conn) net.Conn
	// Writable, when non-nil, gates write transactions: a follower node
	// returns false and a writable BEGIN is rejected with CodeNotLeader,
	// the response Msg carrying LeaderHint so routers re-route without a
	// topology fetch. nil means always writable (standalone node).
	Writable func() bool
	// LeaderHint, when non-nil, names the current leader's client address
	// for CodeNotLeader rejections.
	LeaderHint func() string
	// PartitionIndex and PartitionCount pin the static hash partition this
	// node owns. PartitionCount 0 disables the guard; otherwise statements
	// addressing a primary key hashing outside the partition are rejected
	// with CodeWrongPartition before touching the engine.
	PartitionIndex uint32
	PartitionCount uint32
	// AppliedLSN, when non-nil, is the node's replication frontier. A
	// read-only BEGIN carrying MinLSN above it is rejected with
	// CodeStaleRead, so bounded-staleness reads never travel backwards in
	// time relative to what the client has already seen committed.
	AppliedLSN func() uint64
	// Crash, when non-nil, arms server-side crash points (§3.4.2). A fired
	// point models the whole server process dying mid-request: the engine
	// loses its volatile state (locks evaporate, live transactions start
	// failing, the WAL survives), every connection and the listener are
	// cut, and — crucially — no rollback or release code runs for the
	// session that hit the point. Crashed() signals the death so a
	// supervisor can Recover() the engine and start a replacement server.
	Crash *sim.CrashPlan
}

// writeTimeout bounds one response write. Statement execution itself is
// bounded by the engine's lock timeout, matching the databases the paper
// studies.
const writeTimeout = 10 * time.Second

// Crash point names checked when Config.Crash is armed.
const (
	// CrashPointCommitBefore fires after the client's COMMIT frame is
	// decoded but before the engine commit: the WAL never sees the
	// transaction, so recovery must lose it.
	CrashPointCommitBefore = "server/commit:before"
	// CrashPointCommitAfter fires after the engine commit (WAL appended)
	// but before the response frame: the client sees a dead connection
	// with the outcome unknown — the paper's ambiguous-commit window —
	// while recovery must preserve the transaction.
	CrashPointCommitAfter = "server/commit:after"
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = "127.0.0.1:0"
	}
	if out.MaxSessions <= 0 {
		out.MaxSessions = 64
	}
	if out.MaxQueued <= 0 {
		out.MaxQueued = out.MaxSessions
	}
	if out.QueueWait <= 0 {
		out.QueueWait = 100 * time.Millisecond
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 30 * time.Second
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 5 * time.Second
	}
	return out
}

// serverMetrics is the resolved instrument set (see WireObs).
type serverMetrics struct {
	active   *obs.Gauge
	queued   *obs.Gauge
	accepted *obs.Counter
	rejected *obs.Counter
	reaped   *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	perOp    map[wire.Op]*obs.Histogram
	errors   *obs.Counter
}

// Server accepts wire-protocol connections over an Engine and a Store.
// A Server must not be reused after Close.
type Server struct {
	cfg   Config
	eng   *engine.Engine
	store *kv.Store

	ln       net.Listener
	slots    chan struct{} // admission semaphore, capacity MaxSessions
	queued   atomic.Int64
	draining chan struct{}
	done     sync.WaitGroup // accept loop + sessions

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closeOnce sync.Once
	closeErr  error

	crashOnce  sync.Once
	crashedCh  chan struct{}
	crashPoint atomic.Pointer[string]

	om atomic.Pointer[serverMetrics]
}

// New creates an unstarted server. store may be nil when only engine
// commands are served (KV requests then fail with a typed error).
func New(eng *engine.Engine, store *kv.Store, cfg Config) *Server {
	c := cfg.withDefaults()
	return &Server{
		cfg:       c,
		eng:       eng,
		store:     store,
		slots:     make(chan struct{}, c.MaxSessions),
		draining:  make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		crashedCh: make(chan struct{}),
	}
}

// Crashed is closed when an armed crash point fired and the server died
// abruptly. A supervisor should then Close (to reap session goroutines),
// Recover the engine, and start a replacement server; CrashPoint names the
// point that fired.
func (s *Server) Crashed() <-chan struct{} { return s.crashedCh }

// CrashPoint returns the name of the crash point that killed the server, or
// "" if it has not crashed.
func (s *Server) CrashPoint() string {
	if p := s.crashPoint.Load(); p != nil {
		return *p
	}
	return ""
}

// crash kills the server the way a process death would: engine volatile
// state is wiped (WAL survives), the listener and every connection are cut
// with no drain and no per-session rollback. Sessions die on their next
// read/write; the one that hit the point has already dropped its
// transaction handle without rolling back.
func (s *Server) crash(ce *sim.CrashError) {
	s.crashOnce.Do(func() {
		point := ce.Point
		s.crashPoint.Store(&point)
		s.eng.Crash()
		if s.ln != nil {
			_ = s.ln.Close()
		}
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		close(s.crashedCh)
	})
}

// WireObs attaches the server to reg: session admission gauges and counters,
// per-operation wire latency histograms, and bytes in/out. A nil registry is
// a no-op; the disabled path costs one atomic pointer load per use.
func (s *Server) WireObs(reg *obs.Registry) {
	if reg == nil {
		s.om.Store(nil)
		return
	}
	m := &serverMetrics{
		active:   reg.Gauge("server_sessions_active"),
		queued:   reg.Gauge("server_sessions_queued"),
		accepted: reg.Counter("server_sessions_accepted_total"),
		rejected: reg.Counter("server_sessions_rejected_total"),
		reaped:   reg.Counter("server_sessions_reaped_total"),
		bytesIn:  reg.Counter("server_bytes_read_total"),
		bytesOut: reg.Counter("server_bytes_written_total"),
		perOp:    make(map[wire.Op]*obs.Histogram, len(wire.Ops)),
		errors:   reg.Counter("server_request_errors_total"),
	}
	for _, op := range wire.Ops {
		m.perOp[op] = reg.Histogram(fmt.Sprintf("wire_request_seconds{op=%q}", op.String()))
	}
	s.om.Store(m)
}

// Start begins listening and accepting sessions.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.done.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close gracefully drains the server: the listener closes immediately (new
// dials are refused), sessions with an open transaction may finish it, and
// idle sessions are closed. Connections still alive after DrainTimeout are
// forced closed. Close returns an error if sessions survive even that (a
// session can be pinned inside an unbounded engine lock wait). Close is
// idempotent; later calls return the first call's result.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.drain() })
	return s.closeErr
}

func (s *Server) drain() error {
	close(s.draining)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	if waitTimeout(&s.done, s.cfg.DrainTimeout) {
		return nil
	}
	// Grace expired: force-close the stragglers. Their session loops roll
	// back any open transaction on the way out.
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	if waitTimeout(&s.done, s.cfg.DrainTimeout) {
		return nil
	}
	return errors.New("server: sessions still running after drain timeout")
}

func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.done.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.cfg.WrapConn != nil {
			conn = s.cfg.WrapConn(conn)
		}
		s.done.Add(1)
		go s.admit(conn)
	}
}

// track registers conn for force-close at drain; untrack forgets it.
func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// admit runs the handshake and the admission controller for one connection,
// then hands it to a session. Saturation is reported with a typed error
// frame rather than a silent close, so clients can back off and retry
// instead of treating it as a network failure.
func (s *Server) admit(conn net.Conn) {
	defer s.done.Done()
	s.track(conn)
	defer s.untrack(conn)
	m := s.om.Load()

	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.ServerHandshake(conn); err != nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})

	// Fast path: a free slot.
	select {
	case s.slots <- struct{}{}:
	default:
		// Queue, bounded: beyond MaxQueued dials waiting, reject instantly.
		if s.queued.Add(1) > int64(s.cfg.MaxQueued) {
			s.queued.Add(-1)
			s.reject(conn, m, "admission queue full")
			return
		}
		// The gauge is driven with Add alongside the atomic counter: a
		// Load/Set pair here would race with concurrent admits and leave the
		// gauge stale.
		if m != nil {
			m.queued.Add(1)
		}
		timer := time.NewTimer(s.cfg.QueueWait)
		select {
		case s.slots <- struct{}{}:
			timer.Stop()
			s.queued.Add(-1)
			if m != nil {
				m.queued.Add(-1)
			}
		case <-timer.C:
			s.queued.Add(-1)
			if m != nil {
				m.queued.Add(-1)
			}
			s.reject(conn, m, "no session slot within queue wait")
			return
		case <-s.draining:
			timer.Stop()
			s.queued.Add(-1)
			if m != nil {
				m.queued.Add(-1)
			}
			s.reject(conn, m, "server draining")
			return
		}
	}

	if m != nil {
		m.accepted.Inc()
		m.active.Add(1)
	}
	newSession(s, conn, m).run()
	<-s.slots
	if m != nil {
		m.active.Add(-1)
	}
}

// reject sends a typed CodeSaturated frame and closes the connection.
func (s *Server) reject(conn net.Conn, m *serverMetrics, msg string) {
	if m != nil {
		m.rejected.Inc()
	}
	frame, err := wire.AppendResponse(wire.StartFrame(nil), &wire.Response{Code: wire.CodeSaturated, Msg: msg})
	if err == nil {
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_ = wire.WriteFrame(conn, frame)
	}
	_ = conn.Close()
}

// session is one admitted connection: the server-side analogue of a database
// session, owning at most one open transaction and one KV connection. All
// session state is confined to the session goroutine.
type session struct {
	srv  *Server
	conn net.Conn
	m    *serverMetrics
	// br is the one reader every frame of the session is read through, and w
	// the one writer: the conn itself, or the conn behind the byte counters
	// when metrics are on. Both are made once, not per frame.
	br *bufio.Reader
	w  io.Writer

	txn      *engine.Txn
	readOnly bool
	kvc      *kv.Conn

	readBuf  []byte
	writeBuf []byte
	req      wire.Request
	resp     wire.Response
}

// newSession wraps an admitted, handshaken connection. The handshake read
// its six bytes straight off the socket and never reads ahead, so the
// buffered reader made here misses nothing.
func newSession(srv *Server, conn net.Conn, m *serverMetrics) *session {
	s := &session{srv: srv, conn: conn, m: m, w: conn}
	var r io.Reader = conn
	if m != nil {
		r = &countReader{r: conn, c: m.bytesIn}
		s.w = &countWriter{w: conn, c: m.bytesOut}
	}
	s.br = bufio.NewReader(r)
	return s
}

// run serves requests until the client goes away, idles out, or the drain
// completes. The open transaction (if any) is rolled back on every exit
// path: the whole point of sessions being first-class is that locks cannot
// leak past them.
func (s *session) run() {
	defer s.rollbackOpen()
	// A fired crash point panics with *sim.CrashError. The "process" died:
	// drop the transaction handle WITHOUT rolling back (the deferred
	// rollback above must not run release code a dead server couldn't) and
	// tear the whole server down. Anything else re-panics.
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		ce, ok := rec.(*sim.CrashError)
		if !ok {
			panic(rec)
		}
		s.txn = nil
		s.srv.crash(ce)
	}()
	for {
		payload, idle, err := s.readFrame()
		if err != nil {
			if idle && s.m != nil {
				s.m.reaped.Inc()
			}
			_ = s.conn.Close()
			return
		}

		start := time.Now()
		op := s.handle(payload)
		if s.m != nil {
			if h := s.m.perOp[op]; h != nil {
				h.Since(start)
			}
			if s.resp.Code != wire.CodeOK {
				s.m.errors.Inc()
			}
		}

		out, err := wire.AppendResponse(wire.StartFrame(s.writeBuf), &s.resp)
		if err != nil {
			// Response encoding failures are programming errors; drop the
			// session rather than desync the stream.
			_ = s.conn.Close()
			return
		}
		s.writeBuf = out
		_ = s.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := wire.WriteFrame(s.w, out); err != nil {
			_ = s.conn.Close()
			return
		}

		// Drain: once no transaction is open, the session ends. A session
		// mid-transaction keeps going — its client gets to finish, new work
		// is refused at BEGIN.
		select {
		case <-s.srv.draining:
			if s.txn == nil {
				_ = s.conn.Close()
				return
			}
		default:
		}
	}
}

// readFrame reads one request frame in two stages: the wait for the frame's
// first byte runs under the idle-reap deadline, and once any byte has
// arrived the rest of the frame runs under the writeTimeout-scale bound. A
// request already in flight when the reap deadline passes is therefore
// served, not reaped — the reaper only ever fires between requests, so it
// can never roll a transaction back under a statement the client has
// started sending. idle reports a true idle-reap (first-byte deadline);
// timeouts mid-frame are a stalled or torn request, not idleness.
//
// Both stages read through s.br, so a frame that arrived whole costs one
// Read of the socket (inside Peek), and a second frame that arrived in the
// same segment is served from the buffer without touching the socket.
func (s *session) readFrame() (payload []byte, idle bool, err error) {
	// Idle reap doubles as dead-client detection: a killed client's FIN
	// or RST fails the read immediately; a zombie client trips the
	// deadline. Either way the caller's rollback releases its locks.
	_ = s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
	if _, err := s.br.Peek(1); err != nil {
		return nil, isTimeout(err), err
	}
	// A frame is in flight: it gets its own (request-scale) deadline.
	_ = s.conn.SetReadDeadline(time.Now().Add(writeTimeout))
	payload, err = wire.ReadFrame(s.br, s.readBuf)
	if err != nil {
		return nil, false, err
	}
	s.readBuf = payload[:0]
	return payload, false, nil
}

// rollbackOpen rolls back the session's open transaction, if any.
func (s *session) rollbackOpen() {
	if s.txn != nil && !s.txn.Done() {
		_ = s.txn.Rollback()
	}
	s.txn = nil
}

// fail stages a typed error response.
func (s *session) fail(code wire.Code, msg string) {
	s.resp.Reset()
	s.resp.Code = code
	s.resp.Msg = msg
}

// failErr stages the typed response for an engine (or other) error.
func (s *session) failErr(err error) {
	var we *wire.Error
	if errors.As(err, &we) {
		s.fail(we.Code, we.Msg)
		return
	}
	s.fail(wire.CodeOf(err), err.Error())
}

// handle decodes and executes one request, staging s.resp. It returns the
// operation for metric labelling (OpInvalid for undecodable frames).
func (s *session) handle(payload []byte) wire.Op {
	if err := wire.DecodeRequest(payload, &s.req); err != nil {
		s.failErr(err)
		return wire.OpInvalid
	}
	r := &s.req
	s.resp.Reset()
	if r.Begin {
		// The statement opens its own transaction: begin first, and a
		// rejected begin is the whole answer — the statement does not run.
		if s.begin(r); s.resp.Code != wire.CodeOK {
			return r.Op
		}
	}
	switch r.Op {
	case wire.OpPing:
		// staged OK response suffices
	case wire.OpBegin:
		s.begin(r)
	case wire.OpCommit:
		if s.txn == nil {
			s.fail(wire.CodeNoTxn, "COMMIT with no open transaction")
			break
		}
		t := s.txn
		s.srv.cfg.Crash.Check(CrashPointCommitBefore)
		err := t.Commit()
		s.txn = nil
		if err != nil {
			s.failErr(err)
			break
		}
		s.resp.LSN = t.CommitLSN()
		s.srv.cfg.Crash.Check(CrashPointCommitAfter)
	case wire.OpRollback:
		if s.txn == nil {
			s.fail(wire.CodeNoTxn, "ROLLBACK with no open transaction")
			break
		}
		err := s.txn.Rollback()
		s.txn = nil
		if err != nil {
			s.failErr(err)
		}
	case wire.OpSelect:
		if !s.partitionOK(r) {
			break
		}
		s.selectRows(r)
	case wire.OpInsert:
		if !s.writableTxn() || !s.partitionOK(r) {
			break
		}
		s.withTxn(func(t *engine.Txn) error {
			vals := colValMap(r)
			pk, err := t.Insert(r.Table, vals)
			s.resp.N = pk
			return err
		})
	case wire.OpUpdate:
		if !s.writableTxn() || !s.partitionOK(r) {
			break
		}
		s.withTxn(func(t *engine.Txn) error {
			n, err := t.Update(r.Table, r.Pred, colValMap(r))
			s.resp.N = int64(n)
			return err
		})
	case wire.OpDelete:
		if !s.writableTxn() || !s.partitionOK(r) {
			break
		}
		s.withTxn(func(t *engine.Txn) error {
			n, err := t.Delete(r.Table, r.Pred)
			s.resp.N = int64(n)
			return err
		})
	case wire.OpKV:
		s.kvCommand(r)
	default:
		s.fail(wire.CodeBadRequest, "unknown op")
	}
	// An aborted transaction (deadlock victim, serialization failure) is
	// finished engine-side; drop the session's handle so the client's
	// follow-up ROLLBACK gets a clean CodeNoTxn rather than CodeTxnDone.
	if s.txn != nil && s.txn.Done() {
		s.txn = nil
	}
	return r.Op
}

func (s *session) begin(r *wire.Request) {
	if s.txn != nil {
		s.fail(wire.CodeTxnOpen, "BEGIN while a transaction is open")
		return
	}
	select {
	case <-s.srv.draining:
		s.fail(wire.CodeShutdown, "server draining; no new transactions")
		return
	default:
	}
	iso := engine.Isolation(r.Iso)
	if iso < engine.IsolationDefault || iso > engine.Serializable {
		s.fail(wire.CodeBadRequest, "unknown isolation level")
		return
	}
	if r.ReadOnly {
		if fn := s.srv.cfg.AppliedLSN; fn != nil {
			if applied := fn(); r.MinLSN > applied {
				s.fail(wire.CodeStaleRead, fmt.Sprintf("applied LSN %d behind requested %d", applied, r.MinLSN))
				return
			}
		}
	} else if s.srv.cfg.Writable != nil && !s.srv.cfg.Writable() {
		s.fail(wire.CodeNotLeader, s.leaderHint())
		return
	}
	s.readOnly = r.ReadOnly
	mode := s.eng().Config().Mode
	if r.OCC {
		mode = engine.ModeOCC
	}
	s.txn = s.eng().BeginMode(mode, iso)
}

func (s *session) eng() *engine.Engine { return s.srv.eng }

// leaderHint resolves the leader address carried in CodeNotLeader responses.
func (s *session) leaderHint() string {
	if s.srv.cfg.LeaderHint != nil {
		return s.srv.cfg.LeaderHint()
	}
	return ""
}

// writableTxn stages a CodeNotLeader rejection and reports false when the
// session's transaction is read-only: writes that reach a follower's read
// session bounce back to the router with the leader's address.
func (s *session) writableTxn() bool {
	if s.readOnly && s.txn != nil {
		s.fail(wire.CodeNotLeader, s.leaderHint())
		return false
	}
	return true
}

// partitionOK stages a CodeWrongPartition rejection and reports false when
// the request addresses a primary key this node's partition does not own.
// Requests with no extractable key (full scans, engine-assigned inserts)
// pass: each node stores only its own partition's rows anyway.
func (s *session) partitionOK(r *wire.Request) bool {
	count := s.srv.cfg.PartitionCount
	if count == 0 {
		return true
	}
	pk, ok := pkTarget(r)
	if !ok {
		return true
	}
	if p := wire.PartitionOf(pk, count); p != s.srv.cfg.PartitionIndex {
		s.fail(wire.CodeWrongPartition, fmt.Sprintf("pk %d belongs to partition %d", pk, p))
		return false
	}
	return true
}

// pkTarget extracts the primary key a statement addresses, if any.
func pkTarget(r *wire.Request) (int64, bool) {
	if r.Op == wire.OpInsert {
		for i, c := range r.Cols {
			if c == storage.PKColumn && i < len(r.Vals) {
				pk, ok := r.Vals[i].(int64)
				return pk, ok
			}
		}
		return 0, false
	}
	if v, ok := storage.EqCond(r.Pred, storage.PKColumn); ok {
		pk, ok2 := v.(int64)
		return pk, ok2
	}
	return 0, false
}

// withTxn runs a statement against the open transaction.
func (s *session) withTxn(fn func(*engine.Txn) error) {
	if s.txn == nil {
		s.fail(wire.CodeNoTxn, "statement with no open transaction")
		return
	}
	if err := fn(s.txn); err != nil {
		s.failErr(err)
	}
}

func (s *session) selectRows(r *wire.Request) {
	s.withTxn(func(t *engine.Txn) error {
		var opts []engine.SelectOpt
		switch r.Lock {
		case wire.LockForUpdate:
			opts = append(opts, engine.ForUpdate)
		case wire.LockForShare:
			opts = append(opts, engine.ForShare)
		case wire.LockNone:
		default:
			return &wire.Error{Code: wire.CodeBadRequest, Msg: "unknown lock mode"}
		}
		rows, err := t.Select(r.Table, r.Pred, opts...)
		if err != nil {
			return err
		}
		schema := s.eng().Schema(r.Table)
		if schema == nil {
			return fmt.Errorf("%w: %q", engine.ErrNoTable, r.Table)
		}
		for _, col := range schema.Columns {
			s.resp.Cols = append(s.resp.Cols, col.Name)
		}
		for _, row := range rows {
			s.resp.Rows = append(s.resp.Rows, row)
		}
		return nil
	})
}

func colValMap(r *wire.Request) map[string]any {
	vals := make(map[string]any, len(r.Cols))
	for i, c := range r.Cols {
		vals[c] = r.Vals[i]
	}
	return vals
}

// kvCommand executes one KV sub-command on the session's KV connection.
func (s *session) kvCommand(r *wire.Request) {
	if s.srv.store == nil {
		s.fail(wire.CodeBadRequest, "server has no KV store")
		return
	}
	if s.kvc == nil {
		s.kvc = s.srv.store.Conn()
	}
	c := s.kvc
	switch r.Cmd {
	case wire.KVGet:
		s.resp.Str, s.resp.Bool = c.Get(r.Key)
	case wire.KVExists:
		s.resp.Bool = c.Exists(r.Key)
	case wire.KVSet:
		c.Set(r.Key, r.SVal)
	case wire.KVSetPX:
		c.SetPX(r.Key, r.SVal, r.TTL)
	case wire.KVSetNX:
		s.resp.Bool = c.SetNX(r.Key, r.SVal)
	case wire.KVSetNXPX:
		s.resp.Bool = c.SetNXPX(r.Key, r.SVal, r.TTL)
	case wire.KVDel:
		s.resp.Bool = c.Del(r.Key)
	case wire.KVExpire:
		s.resp.Bool = c.Expire(r.Key, r.TTL)
	case wire.KVTTL:
		s.resp.TTL, s.resp.Bool = c.TTL(r.Key)
	case wire.KVSAdd:
		c.SAdd(r.Key, r.SVal)
	case wire.KVSRem:
		c.SRem(r.Key, r.SVal)
	case wire.KVSIsMember:
		s.resp.Bool = c.SIsMember(r.Key, r.SVal)
	case wire.KVSMembers:
		s.resp.Strs = append(s.resp.Strs, c.SMembers(r.Key)...)
	case wire.KVWatch:
		if err := c.Watch(r.Keys...); err != nil {
			s.fail(wire.CodeBadRequest, err.Error())
		}
	case wire.KVUnwatch:
		c.Unwatch()
	case wire.KVMulti:
		if err := c.Multi(); err != nil {
			s.fail(wire.CodeBadRequest, err.Error())
		}
	case wire.KVDiscard:
		c.Discard()
	case wire.KVExec:
		ok, err := c.Exec()
		if err != nil {
			s.fail(wire.CodeBadRequest, err.Error())
			return
		}
		s.resp.Bool = ok
	default:
		s.fail(wire.CodeBadRequest, "unknown kv command")
	}
}

// ---- byte accounting ----

// countReader/Writer sit between the conn and the session's framing so it
// feeds the byte counters without a second buffer copy. newSession makes one
// of each per session, and only when metrics are on.
type countReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

type countWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
