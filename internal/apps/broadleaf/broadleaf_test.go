package broadleaf

import (
	"errors"
	"sync"
	"testing"
	"time"

	"adhoctx/internal/adhoc/locks"
	"adhoctx/internal/engine"
	"adhoctx/internal/sim"
)

func newApp(t *testing.T, mode Mode) *App {
	t.Helper()
	eng := engine.New(engine.Config{Dialect: engine.MySQL, LockTimeout: 10 * time.Second})
	a := New(eng, locks.NewMemLocker())
	a.Mode = mode
	return a
}

func TestAddToCartKeepsTotalsConsistent(t *testing.T) {
	a := newApp(t, AHT)
	cart, err := a.CreateCart()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := a.AddToCart(cart, int64(w), 2, 3.5); err != nil {
					t.Errorf("AddToCart: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	persisted, recomputed, err := a.CartTotal(cart)
	if err != nil {
		t.Fatal(err)
	}
	if persisted != recomputed {
		t.Fatalf("cart total %v != recomputed %v (Figure 1a invariant)", persisted, recomputed)
	}
	if want := 6 * 8 * 2 * 3.5; persisted != want {
		t.Fatalf("total = %v, want %v", persisted, want)
	}
}

// TestCheckoutAHTNoOversell: the ad hoc lock serialises RMWs so stock never
// oversells and every unit sold is accounted for.
func TestCheckoutAHTNoOversell(t *testing.T) {
	testCheckoutNoOversell(t, AHT)
}

// TestCheckoutDBTNoOversell: the Serializable DBT variant is also correct —
// it just burns deadlock retries to get there (§5.2).
func TestCheckoutDBTNoOversell(t *testing.T) {
	testCheckoutNoOversell(t, DBT)
}

func testCheckoutNoOversell(t *testing.T, mode Mode) {
	a := newApp(t, mode)
	sku, err := a.CreateSKU(40)
	if err != nil {
		t.Fatal(err)
	}
	var soldOK, rejected int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				err := a.Checkout(sku, 1)
				mu.Lock()
				switch {
				case err == nil:
					soldOK++
				case errors.Is(err, ErrInsufficientStock):
					rejected++
				default:
					t.Errorf("checkout: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	qty, sold, err := a.SKUState(sku)
	if err != nil {
		t.Fatal(err)
	}
	if sold != int64(soldOK) {
		t.Fatalf("sold column %d != successful checkouts %d", sold, soldOK)
	}
	if qty+sold != 40 {
		t.Fatalf("stock not conserved: qty %d + sold %d != 40", qty, sold)
	}
	if qty < 0 {
		t.Fatalf("oversold: qty %d", qty)
	}
	if soldOK != 40 || rejected != 40 {
		t.Fatalf("soldOK=%d rejected=%d, want 40/40", soldOK, rejected)
	}
}

// TestCheckoutDBTSeesDeadlocks confirms the §5.2 mechanism: under
// contention the Serializable DBT variant suffers deadlocks (and retries),
// while the AHT variant sees none.
func TestCheckoutDBTSeesDeadlocks(t *testing.T) {
	for _, mode := range []Mode{DBT, AHT} {
		// A small per-statement network round trip separates the locking
		// read from the upgrading write, letting concurrent RMWs
		// interleave the way they do against a real networked database.
		eng := engine.New(engine.Config{
			Dialect:     engine.MySQL,
			LockTimeout: 10 * time.Second,
			Net:         sim.Latency{RTT: 200 * time.Microsecond},
		})
		a := New(eng, locks.NewMemLocker())
		a.Mode = mode
		sku, err := a.CreateSKU(10_000)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 15; i++ {
					if err := a.Checkout(sku, 1); err != nil {
						t.Errorf("checkout: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		deadlocks := a.Eng.Stats().Deadlocks
		if mode == DBT && deadlocks == 0 {
			t.Error("DBT checkout under contention saw no deadlocks; the RMW story is broken")
		}
		if mode == AHT && deadlocks != 0 {
			t.Errorf("AHT checkout saw %d deadlocks; the ad hoc lock should prevent them", deadlocks)
		}
	}
}

// TestLRUEvictionBreaksCheckout reproduces the §4.1.1 Broadleaf defect
// end-to-end: with the buggy LRU lock table under key pressure, concurrent
// checkout RMWs lose updates and stock accounting breaks.
func TestLRUEvictionBreaksCheckout(t *testing.T) {
	eng := engine.New(engine.Config{Dialect: engine.MySQL, LockTimeout: 10 * time.Second})
	lru := locks.NewLRULocker(1, true) // tiny capacity, buggy eviction
	a := New(eng, lru)
	a.Mode = AHT
	sku, err := a.CreateSKU(1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := a.Checkout(sku, 1); err != nil {
					t.Errorf("checkout: %v", err)
					return
				}
				// Touch other keys to churn the tiny LRU table.
				if err := a.AddToCart(int64(1000+w), 1, 1, 1); err != nil {
					// cart does not exist; ignore — the lock churn is
					// what matters.
					_ = err
				}
			}
		}(w)
	}
	wg.Wait()
	_, evictedHeld := lru.Stats()
	if evictedHeld == 0 {
		t.Skip("no held-lock eviction occurred this run; cannot assert the anomaly")
	}
	qty, sold, err := a.SKUState(sku)
	if err != nil {
		t.Fatal(err)
	}
	if qty+sold == 1_000_000 && sold == workers*iters {
		t.Log("accounting happened to survive despite held-lock evictions (lost updates are racy)")
	}
}

func TestPromotionOveruseBug(t *testing.T) {
	a := newApp(t, AHT)
	promo, err := a.CreatePromotion(1)
	if err != nil {
		t.Fatal(err)
	}

	// Buggy: the exhaustion check is outside the lock, so N concurrent
	// redeemers all pass it.
	const n = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	var succeeded int
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := a.RedeemPromotion(promo, true); err == nil {
				mu.Lock()
				succeeded++
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	uses, err := a.PromotionUses(promo)
	if err != nil {
		t.Fatal(err)
	}
	if uses <= 1 {
		t.Skipf("race not triggered this run (uses=%d)", uses)
	}
	t.Logf("promotion overuse reproduced: %d uses of a 1-use promotion", uses)
}

func TestPromotionFixedNeverOveruses(t *testing.T) {
	a := newApp(t, AHT)
	promo, err := a.CreatePromotion(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.RedeemPromotion(promo, false)
		}()
	}
	wg.Wait()
	uses, err := a.PromotionUses(promo)
	if err != nil {
		t.Fatal(err)
	}
	if uses != 3 {
		t.Fatalf("uses = %d, want exactly the cap 3", uses)
	}
}

func TestCheckoutInsufficientStock(t *testing.T) {
	a := newApp(t, AHT)
	sku, err := a.CreateSKU(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Checkout(sku, 2); !errors.Is(err, ErrInsufficientStock) {
		t.Fatalf("err = %v", err)
	}
	if err := a.Checkout(999, 1); err == nil {
		t.Fatal("missing sku accepted")
	}
}
