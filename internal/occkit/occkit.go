// Package occkit implements the OCC primitives the paper's discussion (§6)
// proposes the ORM layer should offer, so developers stop hand-rolling
// optimistic ad hoc transactions:
//
//   - OptTxn — the @OptimisticallyTransactional declaration: the ORM tracks
//     the read and write sets of a declared optimistic transaction and
//     atomically validates-and-commits, instead of the developer wiring
//     version columns and guard locks by hand.
//   - ContinuationStore — save(trans)→tid / restore(tid)→trans, which carry
//     an optimistic transaction across multiple HTTP requests (§3.1.2)
//     without holding any database state open.
package occkit

import (
	"fmt"
	"reflect"
	"sync"

	"adhoctx/internal/core"
	"adhoctx/internal/engine"
	"adhoctx/internal/orm"
	"adhoctx/internal/storage"
)

// readEntry is one tracked read: the row image as of the read.
type readEntry struct {
	table string
	pk    int64
	row   storage.Row
}

// writeEntry is one staged write.
type writeEntry struct {
	obj    any
	delete bool
}

// OptTxn is a declared optimistic transaction over ORM models. Reads go to
// the database immediately and join the read set; Save/Delete are staged in
// memory. Commit validates every read row is unchanged and applies the
// staged writes, all inside one database transaction — atomic
// validate-and-commit without hand-written guards.
//
// An OptTxn holds no locks and no open database transaction between calls,
// so it can be parked in a ContinuationStore across requests indefinitely.
type OptTxn struct {
	reg       *orm.Registry
	reads     []readEntry
	predReads []predicateRead
	writes    []writeEntry
	done      bool
}

// Begin starts an optimistic transaction.
func Begin(reg *orm.Registry) *OptTxn {
	return &OptTxn{reg: reg}
}

// Find loads the record with id into dest and adds it to the read set.
func (o *OptTxn) Find(dest any, id int64) (bool, error) {
	if o.done {
		return false, fmt.Errorf("occkit: transaction finished")
	}
	meta, err := o.reg.MetaFor(dest)
	if err != nil {
		return false, err
	}
	var row storage.Row
	err = o.reg.Engine().Run(engine.IsolationDefault, func(t *engine.Txn) error {
		var err error
		row, err = t.SelectOne(meta.Table, storage.ByPK(id))
		return err
	})
	if err != nil {
		return false, err
	}
	if row == nil {
		// Reading absence is a read too: remember it so a concurrent
		// insert fails validation.
		o.reads = append(o.reads, readEntry{table: meta.Table, pk: id, row: nil})
		return false, nil
	}
	o.reads = append(o.reads, readEntry{table: meta.Table, pk: id, row: row.Clone()})
	meta.Load(row, dest)
	return true, nil
}

// predicateRead is one tracked query: the predicate and the row images it
// returned. Validation re-runs the query and compares result sets, so
// phantoms (rows appearing or disappearing under the predicate) fail the
// commit — read-set tracking at the granularity the ORM actually queries.
type predicateRead struct {
	table string
	pred  storage.Pred
	rows  []storage.Row
}

// FindWhere loads every record matching pred into dest (a pointer to a
// slice of a registered model type) and adds the whole query — predicate
// and result set — to the read set.
func (o *OptTxn) FindWhere(dest any, pred storage.Pred) error {
	if o.done {
		return fmt.Errorf("occkit: transaction finished")
	}
	if t := reflect.TypeOf(dest); t == nil || t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Slice {
		return fmt.Errorf("occkit: FindWhere needs a pointer to slice, got %T", dest)
	}
	meta, err := o.reg.MetaFor(protoOf(dest))
	if err != nil {
		return err
	}
	var rows []storage.Row
	err = o.reg.Engine().Run(engine.IsolationDefault, func(t *engine.Txn) error {
		var err error
		rows, err = t.Select(meta.Table, pred)
		return err
	})
	if err != nil {
		return err
	}
	snapshot := make([]storage.Row, len(rows))
	for i, r := range rows {
		snapshot[i] = r.Clone()
	}
	o.predReads = append(o.predReads, predicateRead{table: meta.Table, pred: pred, rows: snapshot})
	meta.LoadSlice(rows, dest)
	return nil
}

// Save stages obj for write at commit.
func (o *OptTxn) Save(obj any) { o.writes = append(o.writes, writeEntry{obj: obj}) }

// Delete stages obj for deletion at commit.
func (o *OptTxn) Delete(obj any) { o.writes = append(o.writes, writeEntry{obj: obj, delete: true}) }

// ReadSetSize returns the number of tracked reads (diagnostics).
func (o *OptTxn) ReadSetSize() int { return len(o.reads) }

// Commit validates the read set and applies the staged writes atomically.
// It returns core.ErrConflict (wrapped) when any read row changed since it
// was read; the caller typically retries the whole unit of work.
func (o *OptTxn) Commit() error {
	if o.done {
		return fmt.Errorf("occkit: transaction finished")
	}
	o.done = true
	return o.reg.Engine().Run(engine.IsolationDefault, func(t *engine.Txn) error {
		for _, r := range o.reads {
			cur, err := t.SelectOne(r.table, storage.ByPK(r.pk), engine.ForUpdate)
			if err != nil {
				return err
			}
			if !rowsEqual(cur, r.row) {
				return fmt.Errorf("occkit: %s id=%d changed since read: %w", r.table, r.pk, core.ErrConflict)
			}
		}
		for _, pr := range o.predReads {
			cur, err := t.Select(pr.table, pr.pred)
			if err != nil {
				return err
			}
			if !resultSetsEqual(cur, pr.rows) {
				return fmt.Errorf("occkit: query %s on %s changed since read: %w",
					pr.pred, pr.table, core.ErrConflict)
			}
		}
		sess := o.reg.WithTxn(t)
		for _, w := range o.writes {
			if w.delete {
				if err := sess.Delete(w.obj); err != nil {
					return err
				}
				continue
			}
			if err := sess.Save(w.obj); err != nil {
				return err
			}
		}
		return nil
	})
}

// Abort discards the transaction.
func (o *OptTxn) Abort() { o.done = true }

// resultSetsEqual compares two result sets in engine order (sorted by pk).
func resultSetsEqual(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !rowsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// protoOf returns a pointer to a zero value of dest's element type, where
// dest is a pointer to a slice of a registered model type.
func protoOf(dest any) any {
	t := reflect.TypeOf(dest)
	if t == nil || t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Slice {
		return dest // let MetaFor produce the error
	}
	return reflect.New(t.Elem().Elem()).Interface()
}

func rowsEqual(a, b storage.Row) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !storage.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ContinuationStore parks optimistic transactions between requests: the §6
// save/restore proposal. Tokens are single-use.
type ContinuationStore struct {
	mu   sync.Mutex
	next int64
	m    map[string]*OptTxn
}

// NewContinuationStore returns an empty store.
func NewContinuationStore() *ContinuationStore {
	return &ContinuationStore{m: make(map[string]*OptTxn)}
}

// Save parks the transaction and returns its token.
func (s *ContinuationStore) Save(o *OptTxn) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	tid := fmt.Sprintf("tid-%d", s.next)
	s.m[tid] = o
	return tid
}

// Restore retrieves and removes the transaction for tid.
func (s *ContinuationStore) Restore(tid string) (*OptTxn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.m[tid]
	delete(s.m, tid)
	return o, ok
}

// Len returns the number of parked transactions.
func (s *ContinuationStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
