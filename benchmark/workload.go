package main

import (
	"fmt"
	"math/rand"

	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// Data shape shared by every workload: accounts(id, balance, grp indexed,
// pad) seeded with accountRows rows, groupSize of them per grp value, and an
// empty orders(id, sku, who). 20 000 rows against 2 clients keeps rows well
// above clients except where a workload narrows the key range on purpose.
//
// hot_occ draws from hotRows rows. With 4, about 1.5% of checkouts retried,
// which put p99 on the cliff between the transactions that retried and the
// ones that did not, and it swung 2x from run to run; with 2, about 4% retry
// and p99 sits inside the retried ones.
const (
	accountRows    = 20000
	groupSize      = 10
	initialBalance = 1_000_000
	hotRows        = 2
	zipfS          = 1.1
	seedStride     = 7919 // client i draws from seed + seedStride*i
)

var pad = string(make([]byte, 64))

func createTables(eng *engine.Engine) {
	eng.CreateTable(storage.NewSchema("accounts",
		storage.Column{Name: "balance", Type: storage.TInt},
		storage.Column{Name: "grp", Type: storage.TInt},
		storage.Column{Name: "pad", Type: storage.TString},
	), "grp")
	eng.CreateTable(storage.NewSchema("orders",
		storage.Column{Name: "sku", Type: storage.TInt},
		storage.Column{Name: "who", Type: storage.TInt},
	))
}

const balanceCol = 1 // index of accounts.balance in a selected row

// seedAccounts loads the accounts table in batches small enough that each
// commit record fits one replication catch-up frame.
func seedAccounts(eng *engine.Engine) error {
	const batch = 2500
	for lo := int64(1); lo <= accountRows; lo += batch {
		err := eng.Run(engine.IsolationDefault, func(t *engine.Txn) error {
			for id := lo; id < lo+batch && id <= accountRows; id++ {
				if _, err := t.Insert("accounts", map[string]storage.Value{
					"id": id, "balance": int64(initialBalance), "grp": id % (accountRows / groupSize), "pad": pad,
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("seeding accounts from %d: %w", lo, err)
		}
	}
	return nil
}

// txnKind is the shape of one generated transaction.
type txnKind uint8

const (
	kindTransfer txnKind = iota // 2PL: lock a and b, move amt
	kindRead                    // read-only: 4 PK reads + 1 index read
	kindCheckout                // OCC: decrement a hot row, insert an order
)

// plan is one generated transaction: everything the generator decides. The
// statements follow from it and from the values the transaction reads.
type plan struct {
	kind txnKind
	a, b int64    // transfer endpoints; a is the checkout row
	amt  int64    // transfer amount
	keys [4]int64 // read-only point reads
	grp  int64    // read-only index read
	who  int64    // client index, recorded in orders.who
}

func (p plan) String() string {
	switch p.kind {
	case kindTransfer:
		return fmt.Sprintf("transfer %d->%d amt=%d", p.a, p.b, p.amt)
	case kindRead:
		return fmt.Sprintf("read %v grp=%d", p.keys, p.grp)
	default:
		return fmt.Sprintf("checkout sku=%d who=%d", p.a, p.who)
	}
}

func (p plan) beginOpts() client.BeginOpts {
	return client.BeginOpts{ReadOnly: p.kind == kindRead, OCC: p.kind == kindCheckout}
}

func (p plan) mode() engine.Mode {
	if p.kind == kindCheckout {
		return engine.ModeOCC
	}
	return engine.Mode2PL
}

// txn is the statement surface a plan runs against: client.Txn over the wire
// in the windows, engine.Txn in the engine peel.
type txn interface {
	selectRows(table string, pred storage.Pred, forUpdate bool) ([]storage.Row, error)
	update(table string, pred storage.Pred, set map[string]storage.Value) error
	insert(table string, vals map[string]storage.Value) error
}

// run issues the plan's statements. A read that returns the wrong number of
// rows is an output error, reported like a failed statement.
func (p plan) run(tx txn) error {
	one := func(id int64, forUpdate bool) (storage.Row, error) {
		rows, err := tx.selectRows("accounts", storage.ByPK(id), forUpdate)
		if err != nil {
			return nil, err
		}
		if len(rows) != 1 {
			return nil, fmt.Errorf("accounts id=%d: got %d rows, want 1", id, len(rows))
		}
		return rows[0], nil
	}
	switch p.kind {
	case kindTransfer:
		// Lock in primary-key order so two transfers never deadlock.
		lo, hi := p.a, p.b
		if lo > hi {
			lo, hi = hi, lo
		}
		rlo, err := one(lo, true)
		if err != nil {
			return err
		}
		rhi, err := one(hi, true)
		if err != nil {
			return err
		}
		ra, rb := rlo, rhi
		if p.a != lo {
			ra, rb = rhi, rlo
		}
		if err := tx.update("accounts", storage.ByPK(p.a),
			map[string]storage.Value{"balance": ra[balanceCol].(int64) - p.amt}); err != nil {
			return err
		}
		return tx.update("accounts", storage.ByPK(p.b),
			map[string]storage.Value{"balance": rb[balanceCol].(int64) + p.amt})
	case kindRead:
		for _, id := range p.keys {
			if _, err := one(id, false); err != nil {
				return err
			}
		}
		rows, err := tx.selectRows("accounts", storage.Eq{Col: "grp", Val: p.grp}, false)
		if err != nil {
			return err
		}
		if len(rows) != groupSize {
			return fmt.Errorf("accounts grp=%d: got %d rows, want %d", p.grp, len(rows), groupSize)
		}
		return nil
	default:
		row, err := one(p.a, false)
		if err != nil {
			return err
		}
		if err := tx.update("accounts", storage.ByPK(p.a),
			map[string]storage.Value{"balance": row[balanceCol].(int64) - 1}); err != nil {
			return err
		}
		return tx.insert("orders", map[string]storage.Value{"sku": p.a, "who": p.who})
	}
}

// workload names one traffic mix and why it is in the benchmark.
type workload struct {
	name       string
	why        string
	replicated bool
	next       func(g *generator) plan
}

var workloads = []workload{
	{
		name: "transfer_durable",
		why:  "2PL write path with every layer on: 6 round trips and one group-commit fsync per transfer; wal, disk and lockmgr do most of their work here",
		next: (*generator).transfer,
	},
	{
		name: "read_mostly",
		why:  "19 of 20 transactions are read-only snapshot reads that never reach wal or disk, so time is round trips and the engine read path; the 20th is a transfer so a read gain that taxes writers shows",
		next: func(g *generator) plan {
			if g.seq%20 == 0 {
				return g.transfer()
			}
			return g.read()
		},
	},
	{
		name: "hot_occ",
		why:  "OCC checkout on 2 hot rows through the client's retry loop: validation conflicts, retry waste and version-chain growth are what is measured, on the engine's other commit path",
		next: (*generator).checkout,
	},
	{
		name:       "transfer_replicated",
		why:        "transfer_durable plus one strict semi-sync follower on its own disk: the gap to transfer_durable is the replication cost; the other three bypass repl",
		replicated: true,
		next:       (*generator).transfer,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generator produces one client's plans from its seed alone.
type generator struct {
	w      workload
	client int
	seq    int
	r      *rand.Rand
	zipf   *rand.Zipf
}

func newGenerator(w workload, seed int64, client int) *generator {
	r := rand.New(rand.NewSource(seed + seedStride*int64(client)))
	return &generator{w: w, client: client, r: r, zipf: rand.NewZipf(r, zipfS, 1, accountRows-1)}
}

func (g *generator) next() plan {
	g.seq++
	p := g.w.next(g)
	p.who = int64(g.client)
	return p
}

func (g *generator) key() int64 { return 1 + int64(g.zipf.Uint64()) }

func (g *generator) transfer() plan {
	p := plan{kind: kindTransfer, a: g.key(), amt: 1 + g.r.Int63n(100)}
	for p.b = g.key(); p.b == p.a; p.b = g.key() {
	}
	return p
}

func (g *generator) read() plan {
	p := plan{kind: kindRead, grp: g.key() % (accountRows / groupSize)}
	for i := range p.keys {
		p.keys[i] = g.key()
	}
	return p
}

func (g *generator) checkout() plan {
	return plan{kind: kindCheckout, a: 1 + g.r.Int63n(hotRows)}
}

// remoteTxn adapts client.Txn to txn. With a recorder it times each call.
type remoteTxn struct {
	t   *client.Txn
	rec *clientRecorder
}

func (r remoteTxn) selectRows(table string, pred storage.Pred, forUpdate bool) ([]storage.Row, error) {
	lock := wire.LockNone
	if forUpdate {
		lock = wire.LockForUpdate
	}
	start := r.rec.now()
	res, err := r.t.Select(table, pred, lock)
	r.rec.span(callSelect, start, r.rec.now())
	if err != nil {
		return nil, err
	}
	rows := make([]storage.Row, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = row
	}
	return rows, nil
}

func (r remoteTxn) update(table string, pred storage.Pred, set map[string]storage.Value) error {
	start := r.rec.now()
	n, err := r.t.Update(table, pred, set)
	r.rec.span(callUpdate, start, r.rec.now())
	if err == nil && n != 1 {
		err = fmt.Errorf("%s %s: updated %d rows, want 1", table, pred, n)
	}
	return err
}

func (r remoteTxn) insert(table string, vals map[string]storage.Value) error {
	start := r.rec.now()
	_, err := r.t.Insert(table, vals)
	r.rec.span(callInsert, start, r.rec.now())
	return err
}

// localTxn adapts engine.Txn to txn for the in-process peel.
type localTxn struct{ t *engine.Txn }

func (l localTxn) selectRows(table string, pred storage.Pred, forUpdate bool) ([]storage.Row, error) {
	if forUpdate {
		return l.t.Select(table, pred, engine.ForUpdate)
	}
	return l.t.Select(table, pred)
}

func (l localTxn) update(table string, pred storage.Pred, set map[string]storage.Value) error {
	n, err := l.t.Update(table, pred, set)
	if err == nil && n != 1 {
		err = fmt.Errorf("%s %s: updated %d rows, want 1", table, pred, n)
	}
	return err
}

func (l localTxn) insert(table string, vals map[string]storage.Value) error {
	_, err := l.t.Insert(table, vals)
	return err
}
