package proxy

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/wire"
)

// PartitionNodes is one partition's serving topology: the writable leader
// and its read-only followers, by client address.
type PartitionNodes struct {
	Leader    string
	Followers []string
}

// RouterConfig tunes the partition-aware router.
type RouterConfig struct {
	// Partitions is the boot topology, one entry per partition. Primary
	// keys map onto indices of this slice via wire.PartitionOf.
	Partitions []PartitionNodes
	// ClientConfig is the template for per-node clients (Addr is
	// overwritten per node). Its Dial seam and RetryConnLost policy apply
	// to every routed connection.
	ClientConfig client.Config
	// MaxRetries bounds whole-transaction attempts per call (default 5).
	MaxRetries int
	// MaxRedirects bounds NOT_LEADER redirects within one call (default 4).
	// Redirects don't consume retry attempts: following a leader hint is
	// progress, not failure.
	MaxRedirects int
	// BackoffBase scales the jittered backoff between attempts (default
	// 200µs, matching the client).
	BackoffBase time.Duration
}

// Router is the shard-aware routing layer over the replicated serving tier.
// It owns one pooled client per node address, maps primary keys to
// partitions with the same static hash every node uses, sends write
// transactions to partition leaders (following typed NOT_LEADER redirects
// transparently), and serves read-only transactions from followers under a
// bounded-staleness guarantee: a follower is only used if its applied LSN
// has reached the partition's last commit LSN observed through this router,
// so a caller always reads its own writes.
//
// Router is safe for concurrent use.
type Router struct {
	cfg RouterConfig

	mu      sync.Mutex
	parts   []PartitionNodes
	clients map[string]*client.Client
	closed  bool

	lastLSN []atomic.Uint64 // per-partition: highest commit LSN seen
	rr      []atomic.Uint64 // per-partition: follower round-robin cursor

	redirects atomic.Int64
	fallbacks atomic.Int64
}

// NewRouter builds a router over the given topology.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.MaxRedirects <= 0 {
		cfg.MaxRedirects = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 200 * time.Microsecond
	}
	parts := make([]PartitionNodes, len(cfg.Partitions))
	for i, p := range cfg.Partitions {
		parts[i] = PartitionNodes{Leader: p.Leader, Followers: append([]string(nil), p.Followers...)}
	}
	return &Router{
		cfg:     cfg,
		parts:   parts,
		clients: make(map[string]*client.Client),
		lastLSN: make([]atomic.Uint64, len(parts)),
		rr:      make([]atomic.Uint64, len(parts)),
	}
}

// Partitions returns the partition count.
func (r *Router) Partitions() uint32 { return uint32(len(r.parts)) }

// PartitionOf maps a primary key to its owning partition.
func (r *Router) PartitionOf(pk int64) uint32 { return wire.PartitionOf(pk, r.Partitions()) }

// Leader returns the current leader address for a partition.
func (r *Router) Leader(part uint32) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parts[part].Leader
}

// UpdateLeader installs a new leader address for a partition (failover, or
// a NOT_LEADER hint). The previous leader, if still listed as a follower,
// is left there; the supervisor owns follower-set edits.
func (r *Router) UpdateLeader(part uint32, addr string) {
	r.mu.Lock()
	r.parts[part].Leader = addr
	r.mu.Unlock()
}

// SetFollowers replaces a partition's follower set.
func (r *Router) SetFollowers(part uint32, addrs []string) {
	r.mu.Lock()
	r.parts[part].Followers = append([]string(nil), addrs...)
	r.mu.Unlock()
}

// LastLSN returns the partition's read-your-writes floor: the highest
// commit LSN a transaction routed through this router has observed.
func (r *Router) LastLSN(part uint32) uint64 { return r.lastLSN[part].Load() }

// Redirects returns how many NOT_LEADER redirects were followed.
func (r *Router) Redirects() int64 { return r.redirects.Load() }

// LeaderReadFallbacks returns how many read-only transactions fell back to
// the leader because no follower satisfied the staleness bound.
func (r *Router) LeaderReadFallbacks() int64 { return r.fallbacks.Load() }

// Close closes every node client.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	clients := make([]*client.Client, 0, len(r.clients))
	for _, c := range r.clients {
		clients = append(clients, c)
	}
	r.clients = make(map[string]*client.Client)
	r.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
}

// clientFor returns (lazily creating) the pooled client for a node address.
func (r *Router) clientFor(addr string) *client.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.clients[addr]; ok {
		return c
	}
	cfg := r.cfg.ClientConfig
	cfg.Addr = addr
	c := client.New(cfg)
	if !r.closed {
		r.clients[addr] = c
	}
	return c
}

// noteCommit advances the partition's read-your-writes floor.
func (r *Router) noteCommit(part uint32, lsn uint64) {
	for {
		cur := r.lastLSN[part].Load()
		if lsn <= cur || r.lastLSN[part].CompareAndSwap(cur, lsn) {
			return
		}
	}
}

func (r *Router) backoff(i int) {
	step := int64(i + 1)
	if step > 8 {
		step = 8
	}
	base := r.cfg.BackoffBase
	time.Sleep(base/2 + time.Duration(rand.Int63n(step*int64(base))))
}

// notLeader extracts the leader hint from a CodeNotLeader error.
func notLeader(err error) (hint string, ok bool) {
	var we *wire.Error
	if errors.As(err, &we) && we.Code == wire.CodeNotLeader {
		return we.Msg, true
	}
	return "", false
}

// wrongPartition reports a CodeWrongPartition rejection.
func wrongPartition(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeWrongPartition
}

func staleRead(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeStaleRead
}

// retryable mirrors the client's whole-transaction retry policy.
func (r *Router) retryable(err error) bool {
	if wire.IsRetryable(err) || engine.IsRetryable(err) || errors.Is(err, engine.ErrTxnDone) {
		return true
	}
	if !r.cfg.ClientConfig.RetryConnLost || errors.Is(err, client.ErrClosed) {
		return false
	}
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Code == wire.CodeConnLost
	}
	return true
}

// RunTxnPK routes a write transaction by the primary key it is keyed on.
func (r *Router) RunTxnPK(pk int64, iso engine.Isolation, fn func(*client.Txn) error) error {
	return r.RunTxn(r.PartitionOf(pk), iso, fn)
}

// RunTxn runs fn as a write transaction on the partition's leader,
// committing on success. Typed NOT_LEADER rejections are retried
// transparently against the hinted leader (or the updated topology);
// retryable engine codes restart the transaction with backoff, like
// client.RunTxn. A WRONG_PARTITION rejection is returned as-is — it means
// the router's topology and the node's partition assignment disagree, which
// re-running cannot fix.
func (r *Router) RunTxn(part uint32, iso engine.Isolation, fn func(*client.Txn) error) error {
	if int(part) >= len(r.parts) {
		return fmt.Errorf("proxy: partition %d out of range (%d partitions)", part, len(r.parts))
	}
	var err error
	redirects := 0
	for attempt := 0; attempt < r.cfg.MaxRetries; attempt++ {
		var lsn uint64
		lsn, err = r.runWriteOnce(r.clientFor(r.Leader(part)), iso, fn)
		if err == nil {
			r.noteCommit(part, lsn)
			return nil
		}
		if hint, isNL := notLeader(err); isNL {
			if redirects >= r.cfg.MaxRedirects {
				return err
			}
			redirects++
			r.redirects.Add(1)
			if hint != "" && hint != r.Leader(part) {
				r.UpdateLeader(part, hint)
			} else {
				// No forwarding address (failover in progress): wait for
				// the supervisor to install the new leader.
				r.backoff(attempt)
			}
			attempt-- // a redirect is progress, not a failed attempt
			continue
		}
		if !r.retryable(err) {
			return err
		}
		r.backoff(attempt)
	}
	return err
}

func (r *Router) runWriteOnce(c *client.Client, iso engine.Isolation, fn func(*client.Txn) error) (uint64, error) {
	t, err := c.Begin(iso)
	if err != nil {
		return 0, err
	}
	defer func() { _ = t.Rollback() }()
	if err := fn(t); err != nil {
		return 0, err
	}
	if t.Done() {
		return 0, engine.ErrTxnDone
	}
	if err := t.Commit(); err != nil {
		return 0, err
	}
	return t.CommitLSN(), nil
}

// RunReadTxnPK routes a read-only transaction by primary key.
func (r *Router) RunReadTxnPK(pk int64, iso engine.Isolation, fn func(*client.Txn) error) error {
	return r.RunReadTxn(r.PartitionOf(pk), iso, fn)
}

// RunReadTxn runs fn as a read-only transaction against one of the
// partition's followers, bounded-staleness guarded: the begin (riding on the
// first statement) carries the partition's last observed commit LSN, and a
// follower that has not applied that far rejects it with STALE_READ.
// Followers are tried round-robin;
// when none qualifies (all stale, crashed, or there are none) the read
// falls back to the leader, which trivially satisfies the bound.
func (r *Router) RunReadTxn(part uint32, iso engine.Isolation, fn func(*client.Txn) error) error {
	if int(part) >= len(r.parts) {
		return fmt.Errorf("proxy: partition %d out of range (%d partitions)", part, len(r.parts))
	}
	var err error
	for attempt := 0; attempt < r.cfg.MaxRetries; attempt++ {
		err = r.readOnce(part, iso, fn)
		if err == nil || !r.retryable(err) {
			return err
		}
		r.backoff(attempt)
	}
	return err
}

func (r *Router) readOnce(part uint32, iso engine.Isolation, fn func(*client.Txn) error) error {
	minLSN := r.LastLSN(part)
	opts := client.BeginOpts{ReadOnly: true, MinLSN: minLSN}

	r.mu.Lock()
	followers := append([]string(nil), r.parts[part].Followers...)
	leader := r.parts[part].Leader
	r.mu.Unlock()

	var lastErr error
	if n := len(followers); n > 0 {
		start := int(r.rr[part].Add(1)) % n
		for i := 0; i < n; i++ {
			addr := followers[(start+i)%n]
			done, err := r.readOn(r.clientFor(addr), iso, opts, fn)
			if done {
				return err
			}
			lastErr = err
		}
	}
	// Leader fallback: its applied LSN is its durable frontier, which every
	// acknowledged commit precedes, so the bound always holds there.
	r.fallbacks.Add(1)
	done, err := r.readOn(r.clientFor(leader), iso, opts, fn)
	if done {
		return err
	}
	if err != nil {
		lastErr = err
	}
	return lastErr
}

// readOn attempts the read-only transaction on one node. done=false means
// "try the next candidate": the node is unreachable or too stale. The begin
// rides on fn's first statement, so that is where such a rejection now
// surfaces; Txn.Opened tells it from a failure of the transaction proper.
// Errors out of an opened transaction, or from commit, are final for this
// candidate pass.
func (r *Router) readOn(c *client.Client, iso engine.Isolation, opts client.BeginOpts, fn func(*client.Txn) error) (done bool, err error) {
	t, err := c.BeginWith(iso, opts)
	if err != nil {
		return answered(err), err
	}
	defer func() { _ = t.Rollback() }()
	if err := fn(t); err != nil {
		if t.Done() && !t.Opened() {
			// The opening frame was rejected or never arrived: nothing ran
			// on this node.
			return answered(err), err
		}
		return true, err
	}
	if t.Done() {
		return true, engine.ErrTxnDone
	}
	return true, t.Commit()
}

// answered classifies the failure of a transaction that never opened on its
// node: false for a stale follower or a transport-level failure (a routing
// miss: try the next node), true for any other typed rejection (saturated
// after retries, bad request), which is the node's real answer.
func answered(err error) bool {
	if staleRead(err) {
		return false
	}
	var we *wire.Error
	return errors.As(err, &we)
}
