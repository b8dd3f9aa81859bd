package spree

import (
	"errors"
	"sync"
	"testing"
	"time"

	"adhoctx/internal/adhoc/locks"
	"adhoctx/internal/engine"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
)

func newApp(t *testing.T, mode Mode) *App {
	t.Helper()
	eng := engine.New(engine.Config{Dialect: engine.Postgres, LockTimeout: 10 * time.Second})
	a := New(eng, sim.RealClock{}, locks.NewMemLocker())
	a.Mode = mode
	return a
}

// TestCheckoutDecrementTouchCascade verifies the §3.1.1 shape: saving the
// SKU refreshes the product and all its categories inside the same save.
func TestCheckoutDecrementTouchCascade(t *testing.T) {
	eng := engine.New(engine.Config{Dialect: engine.Postgres, LockTimeout: 10 * time.Second})
	clock := sim.NewFakeClock(time.Date(2022, 6, 12, 0, 0, 0, 0, time.UTC))
	a := New(eng, clock, locks.NewMemLocker())
	sku, err := a.SeedCatalog(10, 3)
	if err != nil {
		t.Fatal(err)
	}

	clock.Advance(time.Hour)
	if err := a.CheckoutDecrement(sku, 4); err != nil {
		t.Fatal(err)
	}
	if q, _ := a.SKUQuantity(sku); q != 6 {
		t.Fatalf("quantity = %d, want 6", q)
	}
	// All three categories were touched by the ORM-generated cascade.
	err = eng.Run(engine.IsolationDefault, func(tx *engine.Txn) error {
		cats, err := tx.Select("categories", allRows())
		if err != nil {
			return err
		}
		schema := eng.Schema("categories")
		for _, c := range cats {
			at := c.Get(schema, "updated_at").(time.Time)
			if !at.Equal(clock.Now()) {
				t.Fatalf("category %d not touched: %v", c.PK(), at)
			}
		}
		if len(cats) != 3 {
			t.Fatalf("%d categories", len(cats))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckoutConcurrentConserved: the correct order lock conserves stock.
func TestCheckoutConcurrentConserved(t *testing.T) {
	a := newApp(t, AHT)
	sku, err := a.SeedCatalog(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sold int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				err := a.CheckoutDecrement(sku, 1)
				mu.Lock()
				if err == nil {
					sold++
				} else if !errors.Is(err, ErrInsufficientStock) {
					t.Errorf("checkout: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	q, err := a.SKUQuantity(sku)
	if err != nil {
		t.Fatal(err)
	}
	if q != 60-int64(sold) {
		t.Fatalf("quantity %d after %d sales (lost updates)", q, sold)
	}
	if sold != 60 {
		t.Fatalf("sold %d, want 60", sold)
	}
}

// TestBuggySFULosesStock reproduces §4.1.1: with the lock released at
// statement end, concurrent RMWs interleave and updates are lost.
func TestBuggySFULosesStock(t *testing.T) {
	eng := engine.New(engine.Config{
		Dialect: engine.Postgres, LockTimeout: 10 * time.Second,
		Net: sim.Latency{RTT: 100 * time.Microsecond},
	})
	a := New(eng, sim.RealClock{}, locks.NewMemLocker())
	a.BuggySFUOutsideTxn = true
	sku, err := a.SeedCatalog(1_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 8, 10
	var sold int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := a.CheckoutDecrement(sku, 1); err == nil {
					mu.Lock()
					sold++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	q, err := a.SKUQuantity(sku)
	if err != nil {
		t.Fatal(err)
	}
	if q == 1_000-int64(sold) {
		t.Skipf("race not triggered this run (q=%d sold=%d)", q, sold)
	}
	t.Logf("lost updates reproduced: %d sold but stock only dropped by %d", sold, 1_000-q)
}

// TestAddPaymentBothModes: a customer double-submitting payment options must
// end up with exactly one payment.
func TestAddPaymentBothModes(t *testing.T) {
	for _, mode := range []Mode{AHT, DBT} {
		t.Run(map[Mode]string{AHT: "AHT", DBT: "DBT"}[mode], func(t *testing.T) {
			a := newApp(t, mode)
			order, err := a.CreateOrder(99)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 6; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := a.AddPayment(order, 99); err != nil {
						t.Errorf("add-payment: %v", err)
					}
				}()
			}
			wg.Wait()
			n, err := a.PaymentCount(order)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("%d payments, want exactly 1", n)
			}
		})
	}
}

// TestAddPaymentFalseConflicts is the PBC story (§3.3.2): adjacent new
// orders falsely conflict under Serializable DBT (SSI page sharing) but not
// under the predicate-keyed ad hoc lock.
func TestAddPaymentFalseConflicts(t *testing.T) {
	for _, mode := range []Mode{DBT, AHT} {
		// Per-statement round trips let the transactions overlap as they
		// would against a networked database.
		eng := engine.New(engine.Config{
			Dialect: engine.Postgres, LockTimeout: 10 * time.Second,
			Net: sim.Latency{RTT: 150 * time.Microsecond},
		})
		a := New(eng, sim.RealClock{}, locks.NewMemLocker())
		a.Mode = mode
		// Orders with adjacent ids — the "newest orders" hot range.
		var orders []int64
		for i := 0; i < 8; i++ {
			o, err := a.CreateOrder(10)
			if err != nil {
				t.Fatal(err)
			}
			orders = append(orders, o)
		}
		var wg sync.WaitGroup
		for _, o := range orders {
			wg.Add(1)
			go func(o int64) {
				defer wg.Done()
				if err := a.AddPayment(o, 10); err != nil {
					t.Errorf("add-payment: %v", err)
				}
			}(o)
		}
		wg.Wait()
		serr := a.Eng.Stats().SerializationErr
		if mode == DBT && serr == 0 {
			t.Error("DBT add-payment on adjacent orders saw no serialization failures; the PBC story is broken")
		}
		if mode == AHT && serr != 0 {
			t.Errorf("AHT add-payment saw %d serialization failures", serr)
		}
		for _, o := range orders {
			if n, _ := a.PaymentCount(o); n != 1 {
				t.Fatalf("order %d has %d payments", o, n)
			}
		}
	}
}

// TestCrashWedgesCheckout reproduces §4.3: a crash between the processing
// write and the capture leaves the payment stuck, and without a recovery
// sweep the user can never finish check-out.
func TestCrashWedgesCheckout(t *testing.T) {
	a := newApp(t, AHT)
	a.Crash = &sim.CrashPlan{}
	order, err := a.CreateOrder(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddPayment(order, 50); err != nil {
		t.Fatal(err)
	}

	a.Crash.Arm("spree/after-processing", 1)
	err = a.ProcessPayment(order)
	if !sim.IsCrash(err) {
		t.Fatalf("err = %v, want crash", err)
	}
	states, err := a.PaymentStates(order)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0] != "processing" {
		t.Fatalf("states = %v, want the wedged processing state", states)
	}

	// "After reboot": retries fail forever — the §4.3 symptom.
	for i := 0; i < 3; i++ {
		if err := a.ProcessPayment(order); !errors.Is(err, ErrPaymentPending) {
			t.Fatalf("retry %d = %v, want ErrPaymentPending", i, err)
		}
	}

	// The missing rollback handler unwedges it.
	n, err := a.RecoverStuckPayments()
	if err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	if err := a.ProcessPayment(order); err != nil {
		t.Fatalf("checkout after recovery: %v", err)
	}
	states, _ = a.PaymentStates(order)
	if states[0] != "completed" {
		t.Fatalf("states = %v", states)
	}
}

// TestJSONHandlerBreaksTotals reproduces §4.2 deterministically with the
// locked HTML handler and the unlocked JSON handler racing on one order.
func TestJSONHandlerBreaksTotals(t *testing.T) {
	eng := engine.New(engine.Config{
		Dialect: engine.Postgres, LockTimeout: 10 * time.Second,
		Net: sim.Latency{RTT: 100 * time.Microsecond},
	})
	a := New(eng, sim.RealClock{}, locks.NewMemLocker())
	order, err := a.CreateOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.UpdateOrderTotalHTML(order, 1); err != nil {
				t.Errorf("html: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.UpdateOrderTotalJSON(order, 1); err != nil {
				t.Errorf("json: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	total, err := a.OrderTotal(order)
	if err != nil {
		t.Fatal(err)
	}
	if total == 2*n {
		t.Skipf("race not triggered this run (total=%v)", total)
	}
	t.Logf("forgotten coordination reproduced: total %v, want %v", total, 2*n)
}

// TestBothLockedHandlersAreCorrect: when both paths use the lock, totals
// are exact.
func TestBothLockedHandlersAreCorrect(t *testing.T) {
	a := newApp(t, AHT)
	order, err := a.CreateOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	var wg sync.WaitGroup
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := a.UpdateOrderTotalHTML(order, 1); err != nil {
					t.Errorf("html: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total, err := a.OrderTotal(order)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2*n {
		t.Fatalf("total = %v, want %v", total, 2*n)
	}
}

// allRows matches every row.
func allRows() storage.All { return storage.All{} }
