package chaos

import (
	"fmt"
	"math/rand"

	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// initialBalance is each seeded account's starting balance; transfers
// conserve the total, which is one of the run's oracles.
const initialBalance int64 = 100

// Workload is a pluggable chaos workload: the schema it runs over, how the
// tables are seeded, what one client operation does, and what must hold of
// the surviving state. The harness supplies everything else — TCP serving,
// fault injection, crash supervision, a txlog marker row in every attempt,
// and the workload-independent oracles (acked ⊆ final state, leaked locks,
// committed-history serializability).
//
// A nil Config.Workload means the built-in contended-transfer workload.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Tables are created on every engine the harness boots (including the
	// Restart topology's cold verification engine).
	Tables []*storage.Schema
	// Seed populates a fresh database, inside one transaction the harness
	// commits. It runs once per seed: on the Restart topology, only on the
	// first boot of the data directory.
	Seed func(txn *engine.Txn) error
	// Op performs one client operation over the wire. rng is the worker's
	// private generator — derive every random choice from it so the
	// operation sequence is a pure function of the seed. Op runs under
	// RunTxn with blind connection-loss retries, so it must be safe to
	// re-execute: guard writes inside the transaction, don't accumulate
	// client-side state.
	Op func(rng *rand.Rand, txn *client.Txn) error
	// Check inspects the final state and returns a one-line summary of what
	// it observed plus any invariant violations.
	Check func(eng *engine.Engine) (observed string, violations []string)
	// Replay, when non-empty, is the command that selects this workload
	// (callers whose workload isn't reachable from adhocchaos flags);
	// ReplayCommand appends the seed, -clients, -ops and any other Config
	// flag that differs from adhocchaos's default to it.
	Replay string
	// OCC makes the harness begin every client transaction in optimistic
	// mode (BeginOpts.OCC): Op's reads must then use LockNone and rely on
	// commit-time validation instead of row locks.
	OCC bool
}

// transferWorkload is the harness's built-in workload: contended transfers
// between the accounts pks, conserving their total balance. Under 2PL both
// account reads lock FOR UPDATE; as optimistic transactions (occ) they are
// plain snapshot reads — under OCC the engine takes no row locks on reads
// at all — and commit-time backward validation plus the client's
// CodeOCCConflict retry loop replace the locks. The oracles are the same
// in either mode.
func transferWorkload(pks []int64, occ bool) *Workload {
	name, lock := "transfer", wire.LockForUpdate
	if occ {
		name, lock = "transfer-occ", wire.LockNone
	}
	return &Workload{
		Name: name,
		OCC:  occ,
		Tables: []*storage.Schema{storage.NewSchema("accounts",
			storage.Column{Name: "bal", Type: storage.TInt},
		)},
		Seed: func(txn *engine.Txn) error {
			for _, pk := range pks {
				if _, err := txn.Insert("accounts", map[string]storage.Value{
					storage.PKColumn: pk, "bal": initialBalance,
				}); err != nil {
					return err
				}
			}
			return nil
		},
		// Random row choice means random lock order: the deadlock recipe,
		// on purpose.
		Op: func(rng *rand.Rand, txn *client.Txn) error {
			a := pks[rng.Intn(len(pks))]
			b := pks[rng.Intn(len(pks))]
			for b == a {
				b = pks[rng.Intn(len(pks))]
			}
			amt := 1 + rng.Int63n(5)
			return transfer(txn, a, b, amt, lock)
		},
		Check: func(eng *engine.Engine) (string, []string) {
			sum, err := probeSum(eng)
			if err != nil {
				return "", []string{fmt.Sprintf("balance probe failed: %v", err)}
			}
			if want := int64(len(pks)) * initialBalance; sum != want {
				return fmt.Sprintf("sum=%d", sum), []string{
					fmt.Sprintf("balance sum %d, want %d (lost or duplicated writes)", sum, want)}
			}
			return fmt.Sprintf("sum=%d", sum), nil
		},
	}
}

// transfer moves amt from account a to b, reading both rows first — the
// paper's canonical read-modify-write critical section, with the lock order
// left to the caller's rng.
func transfer(txn *client.Txn, a, b, amt int64, lock wire.Lock) error {
	for _, pk := range []int64{a, b} {
		if err := readAccount(txn, pk, lock); err != nil {
			return err
		}
	}
	if _, err := txn.Update("accounts", storage.ByPK(a),
		map[string]storage.Value{"bal": storage.Inc(-amt)}); err != nil {
		return err
	}
	_, err := txn.Update("accounts", storage.ByPK(b),
		map[string]storage.Value{"bal": storage.Inc(amt)})
	return err
}

// readAccount reads account pk, which must exist.
func readAccount(txn *client.Txn, pk int64, lock wire.Lock) error {
	rows, err := txn.Select("accounts", storage.ByPK(pk), lock)
	if err != nil {
		return err
	}
	if len(rows.Rows) != 1 {
		return fmt.Errorf("chaos: account %d: got %d rows", pk, len(rows.Rows))
	}
	return nil
}

// probeSum sums every balance under FOR UPDATE in a fresh transaction.
func probeSum(eng *engine.Engine) (int64, error) {
	txn := eng.Begin(engine.IsolationDefault)
	defer func() { _ = txn.Rollback() }()
	rows, err := txn.Select("accounts", storage.All{}, engine.ForUpdate)
	if err != nil {
		return 0, err
	}
	schema := eng.Schema("accounts")
	var sum int64
	for _, row := range rows {
		bal, _ := row.Get(schema, "bal").(int64)
		sum += bal
	}
	if err := txn.Commit(); err != nil {
		return 0, err
	}
	return sum, nil
}
