package proxy

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/server"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// TestPartitionMappingStable pins the static hash to the shared fixture
// (wire.PartitionFixture): these values are the routing contract between
// every node, router, and client, so a change to wire.PartitionOf is a
// protocol break, not a refactor. The router's own PartitionOf must agree
// with the same table its server-side gate is held to.
func TestPartitionMappingStable(t *testing.T) {
	for _, c := range wire.PartitionFixture() {
		if got := wire.PartitionOf(c.PK, c.Parts); got != c.Want {
			t.Errorf("PartitionOf(%d, %d) = %d, want %d", c.PK, c.Parts, got, c.Want)
		}
		if c.Parts == 0 {
			continue // Router always has >= 1 backend.
		}
		r := NewRouter(RouterConfig{Partitions: make([]PartitionNodes, c.Parts)})
		if got := r.PartitionOf(c.PK); got != c.Want {
			t.Errorf("Router.PartitionOf(%d) with %d partitions = %d, want %d", c.PK, c.Parts, got, c.Want)
		}
		r.Close()
	}
	// Determinism and range across a spread of keys and partition counts.
	for _, parts := range []uint32{2, 3, 4, 16} {
		seen := make(map[uint32]int)
		for pk := int64(0); pk < 4096; pk++ {
			p := wire.PartitionOf(pk, parts)
			if p >= parts {
				t.Fatalf("PartitionOf(%d, %d) = %d out of range", pk, parts, p)
			}
			if p != wire.PartitionOf(pk, parts) {
				t.Fatalf("PartitionOf(%d, %d) not deterministic", pk, parts)
			}
			seen[p]++
		}
		// The mix must actually spread keys: no partition may be starved
		// below half its fair share over 4096 sequential keys.
		fair := 4096 / int(parts)
		for p, n := range seen {
			if n < fair/2 {
				t.Errorf("parts=%d: partition %d got %d of 4096 keys (fair %d)", parts, p, n, fair)
			}
		}
	}
}

// routerNode is one serving node for router tests.
type routerNode struct {
	eng *engine.Engine
	srv *server.Server
}

func startNode(t *testing.T, cfg server.Config) *routerNode {
	t.Helper()
	eng := engine.New(engine.Config{Dialect: engine.MySQL, LockTimeout: 2 * time.Second})
	eng.CreateTable(storage.NewSchema("accounts",
		storage.Column{Name: "bal", Type: storage.TInt},
	))
	srv := server.New(eng, nil, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &routerNode{eng: eng, srv: srv}
}

func (n *routerNode) addr() string { return n.srv.Addr().String() }

// TestRouterWritesFollowLeaderHint: the router starts with a stale topology
// pointing at a follower; the follower's typed NOT_LEADER rejection carries
// the real leader's address and the router retries there transparently.
func TestRouterWritesFollowLeaderHint(t *testing.T) {
	leader := startNode(t, server.Config{})
	follower := startNode(t, server.Config{
		Writable:   func() bool { return false },
		LeaderHint: func() string { return "" }, // set below once leader is up
	})
	// Rebuild the follower with the hint now that the leader address exists.
	hinted := startNode(t, server.Config{
		Writable:   func() bool { return false },
		LeaderHint: func() string { return leader.addr() },
	})
	_ = follower

	r := NewRouter(RouterConfig{
		Partitions: []PartitionNodes{{Leader: hinted.addr()}}, // stale: points at a follower
	})
	defer r.Close()

	err := r.RunTxn(0, engine.IsolationDefault, func(txn *client.Txn) error {
		_, err := txn.Insert("accounts", map[string]storage.Value{"bal": int64(7)})
		return err
	})
	if err != nil {
		t.Fatalf("routed write: %v", err)
	}
	if r.Redirects() != 1 {
		t.Fatalf("redirects = %d, want 1", r.Redirects())
	}
	if got := r.Leader(0); got != leader.addr() {
		t.Fatalf("topology leader = %q, want %q", got, leader.addr())
	}
	// The write landed on the real leader, not the follower.
	rows := 0
	_ = leader.eng.Run(engine.IsolationDefault, func(txn *engine.Txn) error {
		rs, err := txn.Select("accounts", storage.All{})
		rows = len(rs)
		return err
	})
	if rows != 1 {
		t.Fatalf("leader has %d rows, want 1", rows)
	}
	if r.LastLSN(0) == 0 {
		t.Fatal("router did not record the commit LSN")
	}
}

// TestRouterRedirectLoopBounded: a "follower" hinting at itself must yield
// the typed error after MaxRedirects, not spin forever.
func TestRouterRedirectLoopBounded(t *testing.T) {
	var self string
	node := startNode(t, server.Config{
		Writable:   func() bool { return false },
		LeaderHint: func() string { return self },
	})
	self = node.addr()

	r := NewRouter(RouterConfig{
		Partitions:   []PartitionNodes{{Leader: node.addr()}},
		MaxRedirects: 3,
		BackoffBase:  time.Microsecond,
	})
	defer r.Close()

	err := r.RunTxn(0, engine.IsolationDefault, func(txn *client.Txn) error {
		_, err := txn.Insert("accounts", map[string]storage.Value{"bal": int64(1)})
		return err
	})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeNotLeader {
		t.Fatalf("err = %v, want CodeNotLeader after bounded redirects", err)
	}
	if r.Redirects() != 3 {
		t.Fatalf("redirects = %d, want 3", r.Redirects())
	}
}

// TestRouterBoundedStaleness is the table-driven staleness matrix: a
// follower whose applied LSN trails the router's floor is rejected typed
// and the read falls back (next follower, then leader); one that has caught
// up serves the read.
func TestRouterBoundedStaleness(t *testing.T) {
	cases := []struct {
		name          string
		followerLSN   uint64 // applied LSN the follower reports
		floor         uint64 // router's last-seen commit LSN
		wantFallbacks int64  // leader fallbacks taken
	}{
		{name: "follower current", followerLSN: 10, floor: 10, wantFallbacks: 0},
		{name: "follower ahead", followerLSN: 12, floor: 10, wantFallbacks: 0},
		{name: "follower stale", followerLSN: 9, floor: 10, wantFallbacks: 1},
		{name: "no floor yet", followerLSN: 0, floor: 0, wantFallbacks: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leader := startNode(t, server.Config{})
			lsn := tc.followerLSN
			follower := startNode(t, server.Config{
				Writable:   func() bool { return false },
				AppliedLSN: func() uint64 { return lsn },
			})

			r := NewRouter(RouterConfig{
				Partitions: []PartitionNodes{{
					Leader:    leader.addr(),
					Followers: []string{follower.addr()},
				}},
			})
			defer r.Close()
			r.lastLSN[0].Store(tc.floor)

			// Seed one row on the leader so the read sees data there too.
			if err := leader.eng.Run(engine.IsolationDefault, func(txn *engine.Txn) error {
				_, err := txn.Insert("accounts", map[string]storage.Value{"bal": int64(5)})
				return err
			}); err != nil {
				t.Fatal(err)
			}

			err := r.RunReadTxn(0, engine.IsolationDefault, func(txn *client.Txn) error {
				_, err := txn.Select("accounts", storage.All{}, wire.LockNone)
				return err
			})
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if got := r.LeaderReadFallbacks(); got != tc.wantFallbacks {
				t.Fatalf("leader fallbacks = %d, want %d", got, tc.wantFallbacks)
			}
		})
	}
}

// TestRouterReadOnlySessionRejectsWrites: a write smuggled into RunReadTxn
// bounces with NOT_LEADER from the follower's read-only session.
func TestRouterReadOnlySessionRejectsWrites(t *testing.T) {
	leader := startNode(t, server.Config{})
	follower := startNode(t, server.Config{
		Writable:   func() bool { return false },
		AppliedLSN: func() uint64 { return 0 },
		LeaderHint: func() string { return leader.addr() },
	})
	r := NewRouter(RouterConfig{
		Partitions: []PartitionNodes{{Leader: leader.addr(), Followers: []string{follower.addr()}}},
	})
	defer r.Close()

	err := r.RunReadTxn(0, engine.IsolationDefault, func(txn *client.Txn) error {
		_, err := txn.Insert("accounts", map[string]storage.Value{"bal": int64(1)})
		return err
	})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeNotLeader {
		t.Fatalf("err = %v, want CodeNotLeader", err)
	}
}

// TestRouterWrongPartitionSurfaced: a node that owns a different partition
// rejects typed, and the router surfaces it rather than blind-retrying —
// topology disagreement is a bug, not a transient.
func TestRouterWrongPartitionSurfaced(t *testing.T) {
	const parts = 4
	// A node claiming to own partition 0 of 4.
	node := startNode(t, server.Config{PartitionIndex: 0, PartitionCount: parts})

	// Find a pk that does NOT hash to partition 0.
	pk := int64(1)
	for wire.PartitionOf(pk, parts) == 0 {
		pk++
	}
	r := NewRouter(RouterConfig{
		Partitions: []PartitionNodes{
			{Leader: node.addr()}, {Leader: node.addr()},
			{Leader: node.addr()}, {Leader: node.addr()},
		},
	})
	defer r.Close()

	err := r.RunTxnPK(pk, engine.IsolationDefault, func(txn *client.Txn) error {
		_, err := txn.Insert("accounts", map[string]storage.Value{
			storage.PKColumn: pk, "bal": int64(1),
		})
		return err
	})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeWrongPartition {
		t.Fatalf("err = %v, want CodeWrongPartition", err)
	}

	// The same write routed at the right partition's node succeeds.
	owned := startNode(t, server.Config{PartitionIndex: wire.PartitionOf(pk, parts), PartitionCount: parts})
	r.UpdateLeader(wire.PartitionOf(pk, parts), owned.addr())
	if err := r.RunTxnPK(pk, engine.IsolationDefault, func(txn *client.Txn) error {
		_, err := txn.Insert("accounts", map[string]storage.Value{
			storage.PKColumn: pk, "bal": int64(1),
		})
		return err
	}); err != nil {
		t.Fatalf("correctly-routed write: %v", err)
	}
}

// TestRouterReadYourWrites: end-to-end LSN plumbing — a commit through the
// router raises the floor, and a follower stuck behind it cannot serve the
// subsequent read (leader fallback returns the fresh row).
func TestRouterReadYourWrites(t *testing.T) {
	leader := startNode(t, server.Config{})
	follower := startNode(t, server.Config{
		Writable:   func() bool { return false },
		AppliedLSN: func() uint64 { return 0 }, // never catches up
	})
	r := NewRouter(RouterConfig{
		Partitions: []PartitionNodes{{Leader: leader.addr(), Followers: []string{follower.addr()}}},
	})
	defer r.Close()

	var pk int64
	if err := r.RunTxn(0, engine.IsolationDefault, func(txn *client.Txn) error {
		var err error
		pk, err = txn.Insert("accounts", map[string]storage.Value{"bal": int64(31)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if r.LastLSN(0) == 0 {
		t.Fatal("commit LSN not recorded")
	}

	got := 0
	if err := r.RunReadTxn(0, engine.IsolationDefault, func(txn *client.Txn) error {
		rows, err := txn.Select("accounts", storage.ByPK(pk), wire.LockNone)
		if err != nil {
			return err
		}
		got = len(rows.Rows)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("read-your-writes returned %d rows, want 1", got)
	}
	if r.LeaderReadFallbacks() == 0 {
		t.Fatal("read should have fallen back past the stale follower")
	}
}

// TestRouterOpeningFrameRedirects: the begin rides on fn's first statement,
// so every redirect a node used to give at BEGIN now comes back out of fn. A
// rejected or undeliverable opening frame ran nothing on that node and is a
// routing miss (next candidate, leader fallback, leader hint); an error of
// fn's own, before or after the transaction opened, is still final.
func TestRouterOpeningFrameRedirects(t *testing.T) {
	errApp := errors.New("application says no")
	selectAll := func(txn *client.Txn) error {
		_, err := txn.Select("accounts", storage.All{}, wire.LockNone)
		return err
	}
	deadAddr := func(t *testing.T) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	cases := []struct {
		name     string
		follower func(t *testing.T, leader string) string // the node tried first
		write    bool                                     // RunTxn, not RunReadTxn
		fn       func(*client.Txn) error
		wantErr  error
		calls    int // times fn ran
		fallback int64
		redirect int64
	}{
		{
			name: "stale_read on the first statement",
			follower: func(t *testing.T, _ string) string {
				return startNode(t, server.Config{
					Writable: func() bool { return false }, AppliedLSN: func() uint64 { return 9 },
				}).addr()
			},
			fn: selectAll, calls: 2, fallback: 1,
		},
		{
			name:     "failed dial on the first statement",
			follower: func(t *testing.T, _ string) string { return deadAddr(t) },
			fn:       selectAll, calls: 2, fallback: 1,
		},
		{
			name: "not_leader on the first statement",
			follower: func(t *testing.T, leader string) string {
				return startNode(t, server.Config{
					Writable: func() bool { return false }, LeaderHint: func() string { return leader },
				}).addr()
			},
			write: true,
			fn: func(txn *client.Txn) error {
				_, err := txn.Insert("accounts", map[string]storage.Value{"bal": int64(1)})
				return err
			},
			calls: 2, redirect: 1,
		},
		{
			name: "fn's own error before any statement",
			follower: func(t *testing.T, _ string) string {
				return startNode(t, server.Config{Writable: func() bool { return false }}).addr()
			},
			fn: func(*client.Txn) error { return errApp }, wantErr: errApp, calls: 1,
		},
		{
			name: "fn's own error after the transaction opened",
			follower: func(t *testing.T, _ string) string {
				return startNode(t, server.Config{Writable: func() bool { return false }}).addr()
			},
			fn: func(txn *client.Txn) error {
				if err := selectAll(txn); err != nil {
					return err
				}
				return errApp
			},
			wantErr: errApp, calls: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leader := startNode(t, server.Config{})
			first := tc.follower(t, leader.addr())
			nodes := PartitionNodes{Leader: leader.addr(), Followers: []string{first}}
			if tc.write {
				nodes = PartitionNodes{Leader: first} // stale topology: a follower listed as leader
			}
			r := NewRouter(RouterConfig{Partitions: []PartitionNodes{nodes}})
			defer r.Close()
			r.lastLSN[0].Store(10)

			calls := 0
			fn := func(txn *client.Txn) error { calls++; return tc.fn(txn) }
			var err error
			if tc.write {
				err = r.RunTxn(0, engine.IsolationDefault, fn)
			} else {
				err = r.RunReadTxn(0, engine.IsolationDefault, fn)
			}
			if !errors.Is(err, tc.wantErr) { // a nil wantErr matches only a nil err
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if calls != tc.calls || r.LeaderReadFallbacks() != tc.fallback || r.Redirects() != tc.redirect {
				t.Fatalf("fn ran %d times, %d leader fallbacks, %d redirects; want %d, %d, %d",
					calls, r.LeaderReadFallbacks(), r.Redirects(), tc.calls, tc.fallback, tc.redirect)
			}
		})
	}
}

// TestRouterPartitionOutOfRange: misuse gets a plain error.
func TestRouterPartitionOutOfRange(t *testing.T) {
	r := NewRouter(RouterConfig{Partitions: []PartitionNodes{{Leader: "127.0.0.1:1"}}})
	defer r.Close()
	if err := r.RunTxn(9, engine.IsolationDefault, nil); err == nil {
		t.Fatal("want error for out-of-range partition")
	}
	if err := r.RunReadTxn(9, engine.IsolationDefault, nil); err == nil {
		t.Fatal("want error for out-of-range partition")
	}
}

// TestRouterFollowerRoundRobin: reads spread across followers.
func TestRouterFollowerRoundRobin(t *testing.T) {
	leader := startNode(t, server.Config{})
	mkFollower := func() *routerNode {
		return startNode(t, server.Config{
			Writable:   func() bool { return false },
			AppliedLSN: func() uint64 { return 1 << 40 },
		})
	}
	f1, f2 := mkFollower(), mkFollower()
	r := NewRouter(RouterConfig{
		Partitions: []PartitionNodes{{Leader: leader.addr(), Followers: []string{f1.addr(), f2.addr()}}},
	})
	defer r.Close()

	for i := 0; i < 6; i++ {
		if err := r.RunReadTxn(0, engine.IsolationDefault, func(txn *client.Txn) error {
			_, err := txn.Select("accounts", storage.All{}, wire.LockNone)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if r.LeaderReadFallbacks() != 0 {
		t.Fatalf("fallbacks = %d, want 0 with healthy followers", r.LeaderReadFallbacks())
	}
}

func ExampleRouter_PartitionOf() {
	r := NewRouter(RouterConfig{Partitions: make([]PartitionNodes, 4)})
	defer r.Close()
	p := r.PartitionOf(1)
	fmt.Println(p == wire.PartitionOf(1, 4))
	// Output: true
}
