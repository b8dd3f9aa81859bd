// Package client is the pooled wire-protocol client for internal/server —
// the application side of the client/server split the paper's web stacks
// live on. It maintains a bounded pool of dialed, handshaken connections
// with health-checked reuse, per-request timeouts, and an automatic
// retry-with-backoff loop for the typed error codes the paper's ad hoc
// transactions retry (deadlock, serialization failure) plus admission
// rejection.
//
// Connection affinity is the load-bearing invariant: a transaction and a KV
// conversation are both server-session state, so each is pinned to one
// pooled connection from checkout to release, exactly as a web framework
// pins a database transaction to one pooled database connection.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("client: closed")

// healthCheckAfter is the idle age beyond which a pooled connection is
// pinged before reuse instead of trusted blindly. Dead connections are
// re-dialed transparently.
const healthCheckAfter = 15 * time.Second

// Config tunes the client. The zero value (plus Addr) is usable.
type Config struct {
	// Addr is the server address, e.g. "127.0.0.1:7070".
	Addr string
	// PoolSize bounds pooled idle connections (default 4). Checkouts beyond
	// the pool dial fresh connections; returns beyond it close them.
	PoolSize int
	// DialTimeout bounds one dial plus handshake (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response round trip (default 10s).
	RequestTimeout time.Duration
	// MaxRetries bounds RunTxn attempts on retryable codes (default 5).
	MaxRetries int
	// BackoffBase scales the jittered exponential backoff between retries
	// (default 200µs, mirroring the engine's local retry loop).
	BackoffBase time.Duration
	// Dial replaces the TCP dial when set — the seam fault injectors and
	// tests use to wrap or substitute the transport. The returned conn must
	// not be handshaken; the client performs the handshake itself.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// RetryConnLost opts RunTxn and a transaction's opening frame into
	// treating lost connections and failed dials as retryable, the way the
	// paper's web stacks blindly re-run a transaction whose database
	// connection died. Off by default because a conn lost mid-COMMIT is
	// ambiguous — the transaction may have committed — so only workloads
	// whose effects are safe to double-apply (or that verify via an oracle)
	// should enable it.
	RetryConnLost bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.PoolSize <= 0 {
		out.PoolSize = 4
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 2 * time.Second
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 10 * time.Second
	}
	if out.MaxRetries <= 0 {
		out.MaxRetries = 5
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 200 * time.Microsecond
	}
	return out
}

// Client is a pooled wire-protocol client. Safe for concurrent use; the
// Txn and KVConn handles it hands out are not (one goroutine each, like
// engine.Txn and kv.Conn).
type Client struct {
	cfg     Config
	pool    chan *conn
	closed  chan struct{}
	retries atomic.Int64
}

// Retries returns the total number of backoff-retries taken so far (opening-
// frame admission retries plus RunTxn transaction retries) — the wire-level
// analogue of the engine's retry counter.
func (c *Client) Retries() int64 { return c.retries.Load() }

// New creates a client. Connections are dialed lazily on first use, so New
// never blocks on the network.
func New(cfg Config) *Client {
	c := cfg.withDefaults()
	return &Client{
		cfg:    c,
		pool:   make(chan *conn, c.PoolSize),
		closed: make(chan struct{}),
	}
}

// Close closes the client and all pooled connections. Handles already
// checked out keep working until released; their connections are then
// closed instead of pooled.
func (c *Client) Close() error {
	select {
	case <-c.closed:
		return nil
	default:
	}
	close(c.closed)
	for {
		select {
		case cn := <-c.pool:
			cn.close()
		default:
			return nil
		}
	}
}

func (c *Client) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// conn is one pooled connection: a dialed, handshaken socket plus its
// reusable codec buffers. Owned by exactly one goroutine at a time.
type conn struct {
	nc       net.Conn
	br       *bufio.Reader // every frame is read through it
	cfg      *Config
	readBuf  []byte
	writeBuf []byte
	resp     wire.Response
	lastUsed time.Time
}

func (cn *conn) close() { _ = cn.nc.Close() }

// roundTrip sends req and decodes the reply into cn.resp (valid until the
// next call). A wire-level failure poisons the connection; the caller must
// discard it.
func (cn *conn) roundTrip(req *wire.Request) (*wire.Response, error) {
	out, err := wire.AppendRequest(wire.StartFrame(cn.writeBuf), req)
	if err != nil {
		return nil, err
	}
	cn.writeBuf = out
	deadline := time.Now().Add(cn.cfg.RequestTimeout)
	_ = cn.nc.SetDeadline(deadline)
	if err := wire.WriteFrame(cn.nc, out); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrame(cn.br, cn.readBuf)
	if err != nil {
		return nil, err
	}
	cn.readBuf = payload[:0]
	if err := wire.DecodeResponse(payload, &cn.resp); err != nil {
		return nil, err
	}
	cn.lastUsed = time.Now()
	return &cn.resp, nil
}

// dial establishes and handshakes a fresh connection.
func (c *Client) dial() (*conn, error) {
	dialer := c.cfg.Dial
	if dialer == nil {
		dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dialer(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := wire.ClientHandshake(nc); err != nil {
		_ = nc.Close()
		return nil, err
	}
	_ = nc.SetDeadline(time.Time{})
	// The handshake read exactly its six bytes off the socket, so nothing
	// the server sent after them (an admission rejection) is lost to br.
	return &conn{nc: nc, br: bufio.NewReader(nc), cfg: &c.cfg, lastUsed: time.Now()}, nil
}

// get checks a connection out of the pool, health-checking stale ones and
// dialing when the pool is empty.
func (c *Client) get() (*conn, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	for {
		select {
		case cn := <-c.pool:
			if time.Since(cn.lastUsed) < healthCheckAfter {
				return cn, nil
			}
			// Stale: probe before trusting. A dead server answers the ping
			// with an I/O error and we fall through to a fresh dial.
			if resp, err := cn.roundTrip(&wire.Request{Op: wire.OpPing}); err == nil && resp.Code == wire.CodeOK {
				return cn, nil
			}
			cn.close()
		default:
			return c.dial()
		}
	}
}

// put returns a healthy connection to the pool (closing it if the pool is
// full or the client closed).
func (c *Client) put(cn *conn) {
	if c.isClosed() {
		cn.close()
		return
	}
	select {
	case c.pool <- cn:
	default:
		cn.close()
	}
}

// Ping round-trips an OpPing on a pooled connection.
func (c *Client) Ping() error {
	cn, err := c.get()
	if err != nil {
		return err
	}
	resp, err := cn.roundTrip(&wire.Request{Op: wire.OpPing})
	if err != nil {
		cn.close()
		return err
	}
	if err := resp.Err(); err != nil {
		cn.close()
		return err
	}
	c.put(cn)
	return nil
}

// backoff sleeps the jittered exponential delay for retry attempt i,
// mirroring engine.RunWithRetry; without jitter, concurrent retriers can
// livelock.
func (c *Client) backoff(i int) {
	c.retries.Add(1)
	step := int64(i + 1)
	if step > 8 {
		step = 8
	}
	base := c.cfg.BackoffBase
	// Uniform jitter in [base/2, base/2 + step*base): grows with the attempt.
	time.Sleep(base/2 + time.Duration(rand.Int63n(step*int64(base))))
}

// ---- transactions ----

// Txn is a remote transaction pinned to one pooled connection. Single
// goroutine only. Every Txn must end in Commit or Rollback, which releases
// the connection; abandoning one leaks it until the server's idle reaper
// rolls the session back.
//
// The transaction opens on its first statement, not at Begin: that frame
// checks the connection out and carries the begin, so BEGIN costs no round
// trip of its own and the snapshot is taken when the first statement runs —
// PostgreSQL's behaviour, and MySQL's without WITH CONSISTENT SNAPSHOT.
type Txn struct {
	c    *Client
	iso  engine.Isolation
	opts BeginOpts
	// cn is nil until a server has accepted the begin riding on the first
	// statement; from then on the transaction owns it.
	cn        *conn
	done      bool
	commitLSN uint64
}

// CommitLSN returns the transaction's commit LSN after a successful Commit
// (0 before, and for read-only or empty transactions). Feeding it back as
// BeginOpts.MinLSN on the next read-only transaction yields
// read-your-writes across a leader/follower split.
func (t *Txn) CommitLSN() uint64 { return t.commitLSN }

// BeginOpts refines Begin for the replicated serving tier.
type BeginOpts struct {
	// ReadOnly marks the transaction read-only, making it eligible for
	// follower serving; writes inside it are rejected with CodeNotLeader.
	ReadOnly bool
	// MinLSN is the bounded-staleness floor for a read-only transaction:
	// a node whose applied LSN is behind it rejects the BEGIN with
	// CodeStaleRead instead of serving stale rows.
	MinLSN uint64
	// OCC runs the transaction in optimistic mode: snapshot reads without
	// lock acquisition, write buffering, and backward validation at commit.
	// Validation failure surfaces as CodeOCCConflict, which is retryable.
	OCC bool
}

// Rows is one SELECT result set.
type Rows struct {
	Cols []string
	Rows [][]storage.Value
}

// Begin returns a handle for a remote transaction. Nothing is sent and no
// connection is checked out until the first statement (see Txn).
func (c *Client) Begin(iso engine.Isolation) (*Txn, error) {
	return c.BeginWith(iso, BeginOpts{})
}

// BeginWith is Begin with replication-aware options.
func (c *Client) BeginWith(iso engine.Isolation, opts BeginOpts) (*Txn, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	return &Txn{c: c, iso: iso, opts: opts}, nil
}

// Opened reports whether a server accepted the transaction's begin. It is
// false before the first statement and stays false when that statement's
// frame was rejected at the begin or never got through: nothing ran on the
// node, which is what lets a router treat the failure as a routing miss.
func (t *Txn) Opened() bool { return t.cn != nil }

// beginRejected reports whether the typed answer to an opening frame came
// from its begin, so that no transaction is open and the statement did not
// run. Only CodeNotLeader needs context: a writable begin on a follower draws
// it, and so does a write statement inside an accepted read-only
// transaction. CodeBadRequest (bad isolation from the begin, bad lock mode
// from the statement) is left to the statement's side: the ROLLBACK that
// ends the handle then settles the session either way.
func beginRejected(code wire.Code, readOnly bool) bool {
	switch code {
	case wire.CodeTxnOpen, wire.CodeShutdown, wire.CodeStaleRead:
		return true
	case wire.CodeNotLeader:
		return !readOnly
	default:
		return false
	}
}

// open sends the transaction's first statement with the begin riding on it.
// This is where admission is retried: a CodeSaturated answer or an I/O
// failure of this one frame (the server may have force-closed a saturated
// connection) is retried on a fresh connection after a backoff, up to
// MaxRetries; a failed dial is retried the same way under RetryConnLost.
// Retrying is safe because nothing the frame did can outlive its connection:
// the session that ran it rolls back when the connection closes.
func (t *Txn) open(req *wire.Request) (*wire.Response, error) {
	c := t.c
	req.Begin, req.Iso = true, uint8(t.iso)
	req.ReadOnly, req.MinLSN, req.OCC = t.opts.ReadOnly, t.opts.MinLSN, t.opts.OCC
	var lastErr error
	for i := 0; i < c.cfg.MaxRetries; i++ {
		cn, err := c.get()
		if err != nil {
			if c.cfg.RetryConnLost && !errors.Is(err, ErrClosed) {
				// The server may be mid-restart after a crash; keep dialing.
				lastErr = err
				c.backoff(i)
				continue
			}
			t.done = true
			return nil, err
		}
		resp, err := cn.roundTrip(req)
		if err != nil {
			cn.close()
			lastErr = err
			c.backoff(i)
			continue
		}
		switch {
		case resp.Code == wire.CodeSaturated:
			cn.close()
			lastErr = resp.Err()
			c.backoff(i)
			continue
		case beginRejected(resp.Code, t.opts.ReadOnly):
			t.done = true
			rerr := resp.Err()
			if resp.Code == wire.CodeStaleRead || resp.Code == wire.CodeNotLeader {
				// A redirect: the session is as it was, so the connection
				// goes back to the pool clean.
				c.put(cn)
			} else {
				cn.close()
			}
			return nil, rerr
		}
		t.cn = cn
		return t.answer(resp)
	}
	t.done = true
	return nil, fmt.Errorf("client: opening frame gave up after %d attempts: %w", c.cfg.MaxRetries, lastErr)
}

// exec round-trips one request on the transaction's connection. A
// wire-level failure poisons both the transaction and the connection.
func (t *Txn) exec(req *wire.Request) (*wire.Response, error) {
	if t.done {
		return nil, engine.ErrTxnDone
	}
	if t.cn == nil {
		return t.open(req)
	}
	resp, err := t.cn.roundTrip(req)
	if err != nil {
		t.done = true
		t.cn.close()
		return nil, fmt.Errorf("%w: %v", engine.ErrConnLost, err)
	}
	return t.answer(resp)
}

// answer turns a statement's response into exec's result.
func (t *Txn) answer(resp *wire.Response) (*wire.Response, error) {
	rerr := resp.Err()
	if rerr == nil {
		return resp, nil
	}
	// Typed engine errors that abort the transaction server-side leave
	// the session txn-less; finish the handle so the caller's deferred
	// Rollback doesn't double-fault. The connection itself is healthy.
	// A lock timeout is NOT in this set: the engine keeps the
	// transaction open and usable (MySQL semantics), so the handle
	// stays live and still owns the connection — the caller may retry
	// the statement or Rollback.
	switch resp.Code {
	case wire.CodeDeadlock, wire.CodeSerialization, wire.CodeOCCConflict, wire.CodeTxnDone:
		t.done = true
		t.c.put(t.cn)
	}
	return nil, rerr
}

// Select runs a locking or plain SELECT.
func (t *Txn) Select(table string, pred storage.Pred, lock wire.Lock) (*Rows, error) {
	resp, err := t.exec(&wire.Request{Op: wire.OpSelect, Table: table, Pred: pred, Lock: lock})
	if err != nil {
		return nil, err
	}
	// The response reuses its Cols and Rows slices across requests, but each
	// decoded row is its own allocation: copy the two outer slices only.
	return &Rows{
		Cols: append([]string(nil), resp.Cols...),
		Rows: append([][]storage.Value(nil), resp.Rows...),
	}, nil
}

// Insert inserts one row, returning its primary key.
func (t *Txn) Insert(table string, vals map[string]storage.Value) (int64, error) {
	req := &wire.Request{Op: wire.OpInsert, Table: table}
	for k, v := range vals {
		req.Cols = append(req.Cols, k)
		req.Vals = append(req.Vals, v)
	}
	resp, err := t.exec(req)
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Update updates matching rows, returning the count.
func (t *Txn) Update(table string, pred storage.Pred, set map[string]storage.Value) (int, error) {
	req := &wire.Request{Op: wire.OpUpdate, Table: table, Pred: pred}
	for k, v := range set {
		req.Cols = append(req.Cols, k)
		req.Vals = append(req.Vals, v)
	}
	resp, err := t.exec(req)
	if err != nil {
		return 0, err
	}
	return int(resp.N), nil
}

// Delete deletes matching rows, returning the count.
func (t *Txn) Delete(table string, pred storage.Pred) (int, error) {
	resp, err := t.exec(&wire.Request{Op: wire.OpDelete, Table: table, Pred: pred})
	if err != nil {
		return 0, err
	}
	return int(resp.N), nil
}

// Commit commits and releases the connection back to the pool. On a
// transaction that never sent a statement it sends nothing and returns nil.
func (t *Txn) Commit() error { return t.finish(wire.OpCommit) }

// Rollback rolls back and releases the connection. Safe on a finished
// transaction (returns nil), so `defer txn.Rollback()` is idiomatic.
func (t *Txn) Rollback() error {
	if t.done {
		return nil
	}
	return t.finish(wire.OpRollback)
}

func (t *Txn) finish(op wire.Op) error {
	if t.done {
		return engine.ErrTxnDone
	}
	t.done = true
	if t.cn == nil {
		return nil // never opened: nothing to end, and no frame to send
	}
	resp, err := t.cn.roundTrip(&wire.Request{Op: op})
	if err != nil {
		t.cn.close()
		return fmt.Errorf("%w: %v", engine.ErrConnLost, err)
	}
	rerr := resp.Err()
	if rerr != nil {
		var we *wire.Error
		if errors.As(rerr, &we) && we.Code != wire.CodeOK && we.Code != wire.CodeDeadlock &&
			we.Code != wire.CodeSerialization && we.Code != wire.CodeOCCConflict &&
			we.Code != wire.CodeNoTxn && we.Code != wire.CodeTxnDone {
			// Unexpected protocol state: don't pool a connection we no
			// longer understand.
			t.cn.close()
			return rerr
		}
	}
	if op == wire.OpCommit && rerr == nil {
		t.commitLSN = resp.LSN
	}
	t.c.put(t.cn)
	return rerr
}

// Done reports whether the transaction has finished.
func (t *Txn) Done() bool { return t.done }

// RunTxn runs fn inside a remote transaction, committing on success and
// retrying the whole transaction with backoff on retryable codes — the
// client-side analogue of engine.RunWithRetry, and the loop every studied
// application wraps around its database transactions.
func (c *Client) RunTxn(iso engine.Isolation, fn func(*Txn) error) error {
	return c.RunTxnWith(iso, BeginOpts{}, fn)
}

// RunTxnWith is RunTxn with replication- and mode-aware BeginOpts; with
// opts.OCC set it is the wire-level optimistic retry loop — commit-time
// validation failures come back as CodeOCCConflict and re-run fn.
func (c *Client) RunTxnWith(iso engine.Isolation, opts BeginOpts, fn func(*Txn) error) error {
	var err error
	for i := 0; i < c.cfg.MaxRetries; i++ {
		err = c.runOnce(iso, opts, fn)
		if err == nil || !c.retryable(err) {
			return err
		}
		c.backoff(i)
	}
	return err
}

func (c *Client) runOnce(iso engine.Isolation, opts BeginOpts, fn func(*Txn) error) error {
	t, err := c.BeginWith(iso, opts)
	if err != nil {
		return err
	}
	defer func() { _ = t.Rollback() }()
	if err := fn(t); err != nil {
		return err
	}
	if t.Done() {
		return engine.ErrTxnDone
	}
	return t.Commit()
}

// retryable widens wire.IsRetryable with the engine sentinels, so local
// and remote retry loops branch identically. With RetryConnLost set it
// additionally retries lost connections and dial failures — any non-typed
// error out of runOnce is transport-level by construction.
func (c *Client) retryable(err error) bool {
	if wire.IsRetryable(err) || engine.IsRetryable(err) || errors.Is(err, engine.ErrTxnDone) {
		return true
	}
	if !c.cfg.RetryConnLost || errors.Is(err, ErrClosed) {
		return false
	}
	var we *wire.Error
	if errors.As(err, &we) {
		// A typed server reply means the transport worked; of those, only
		// "the database behind the server died" and "this server is
		// draining" are connection-loss cases. CodeShutdown answers a begin,
		// so nothing ran: a server killed mid-run drains its old sessions
		// while its replacement starts.
		return we.Code == wire.CodeConnLost || we.Code == wire.CodeShutdown
	}
	return true
}

// ---- KV ----

// KVConn is a remote KV conversation pinned to one pooled connection —
// WATCH/MULTI state lives in the server session, so the pinning is what
// makes the optimistic protocol sound. Single goroutine only; Close
// releases the connection.
type KVConn struct {
	c      *Client
	cn     *conn
	closed bool
	// watched/inMulti mirror the server-session state so Close knows
	// whether pooling the connection would leak a watch set or MULTI queue
	// to the next checkout.
	watched bool
	inMulti bool
}

// KV checks out a connection for KV commands.
func (c *Client) KV() (*KVConn, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	return &KVConn{c: c, cn: cn}, nil
}

// Close releases the connection back to the pool. The server pins KV
// session state to the connection, so a conversation abandoned mid
// WATCH/MULTI is discarded first — otherwise the next logical KVConn
// handed this pooled connection would inherit a stale watch set or a
// queued MULTI.
func (k *KVConn) Close() {
	if k.closed {
		return
	}
	k.closed = true
	if k.watched || k.inMulti {
		resp, err := k.cn.roundTrip(&wire.Request{Op: wire.OpKV, Cmd: wire.KVDiscard})
		if err != nil || resp.Err() != nil {
			k.cn.close()
			return
		}
	}
	k.c.put(k.cn)
}

func (k *KVConn) do(req *wire.Request) (*wire.Response, error) {
	if k.closed {
		return nil, ErrClosed
	}
	resp, err := k.cn.roundTrip(req)
	if err != nil {
		k.closed = true
		k.cn.close()
		return nil, err
	}
	if rerr := resp.Err(); rerr != nil {
		return nil, rerr
	}
	return resp, nil
}

func (k *KVConn) cmd(c wire.KVCmd, key, sval string, ttl time.Duration) (*wire.Response, error) {
	return k.do(&wire.Request{Op: wire.OpKV, Cmd: c, Key: key, SVal: sval, TTL: ttl})
}

// Get returns the string value of key.
func (k *KVConn) Get(key string) (string, bool, error) {
	resp, err := k.cmd(wire.KVGet, key, "", 0)
	if err != nil {
		return "", false, err
	}
	return resp.Str, resp.Bool, nil
}

// Exists reports whether key is live.
func (k *KVConn) Exists(key string) (bool, error) {
	resp, err := k.cmd(wire.KVExists, key, "", 0)
	if err != nil {
		return false, err
	}
	return resp.Bool, nil
}

// Set stores val at key.
func (k *KVConn) Set(key, val string) error {
	_, err := k.cmd(wire.KVSet, key, val, 0)
	return err
}

// SetNX stores val at key if absent, reporting whether it won.
func (k *KVConn) SetNX(key, val string) (bool, error) {
	resp, err := k.cmd(wire.KVSetNX, key, val, 0)
	if err != nil {
		return false, err
	}
	return resp.Bool, nil
}

// SetNXPX is SetNX with a TTL — the paper's one-round-trip lock acquire.
func (k *KVConn) SetNXPX(key, val string, ttl time.Duration) (bool, error) {
	resp, err := k.cmd(wire.KVSetNXPX, key, val, ttl)
	if err != nil {
		return false, err
	}
	return resp.Bool, nil
}

// Del removes key, reporting whether it existed.
func (k *KVConn) Del(key string) (bool, error) {
	resp, err := k.cmd(wire.KVDel, key, "", 0)
	if err != nil {
		return false, err
	}
	return resp.Bool, nil
}

// Expire sets key's TTL.
func (k *KVConn) Expire(key string, ttl time.Duration) (bool, error) {
	resp, err := k.cmd(wire.KVExpire, key, "", ttl)
	if err != nil {
		return false, err
	}
	return resp.Bool, nil
}

// Watch adds keys to the session's watch set.
func (k *KVConn) Watch(keys ...string) error {
	_, err := k.do(&wire.Request{Op: wire.OpKV, Cmd: wire.KVWatch, Keys: keys})
	if err == nil {
		k.watched = true
	}
	return err
}

// Unwatch clears the watch set.
func (k *KVConn) Unwatch() error {
	_, err := k.cmd(wire.KVUnwatch, "", "", 0)
	if err == nil {
		k.watched = false
	}
	return err
}

// Multi begins queueing commands.
func (k *KVConn) Multi() error {
	_, err := k.cmd(wire.KVMulti, "", "", 0)
	if err == nil {
		k.inMulti = true
	}
	return err
}

// Discard drops the queue and watch set.
func (k *KVConn) Discard() error {
	_, err := k.cmd(wire.KVDiscard, "", "", 0)
	if err == nil {
		k.watched, k.inMulti = false, false
	}
	return err
}

// Exec applies the queued commands if no watched key changed. The watch
// set and queue are cleared either way (Redis semantics).
func (k *KVConn) Exec() (bool, error) {
	resp, err := k.cmd(wire.KVExec, "", "", 0)
	if err != nil {
		return false, err
	}
	k.watched, k.inMulti = false, false
	return resp.Bool, nil
}
