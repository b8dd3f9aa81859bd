package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"adhoctx/internal/chaos"
	"adhoctx/internal/client"
	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
	"adhoctx/internal/wire"
)

// DefaultScale is how many copies of a spec's seed world Mix seeds when the
// caller passes scale <= 0.
const DefaultScale = 4

// Mix compiles a spec into a chaos workload: the spec's entities become
// tables seeded with scale independent copies of its rows, each worker
// operation picks a random copy and fires a random call from the spec's
// palette through one correctly-locked wire transaction (the DBT shape —
// SELECT FOR UPDATE, guard, write, all in one transaction), and the final
// state is checked against the spec's chaos-safe invariants.
//
// Chaos-safe means conserve, bound, and refint. The applied invariant is
// deliberately NOT checked: the chaos client retries blind on lost
// connections, so an acknowledged-then-retried call legitimately applies
// twice — exactly the ambiguity the schedule explorer's closed world rules
// out and the networked harness cannot.
func Mix(s *Spec, scale int) (*chaos.Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: mix %s: %w", s.Name, err)
	}
	if scale <= 0 {
		scale = DefaultScale
	}

	tables := make([]*storage.Schema, len(s.Entities))
	for i, e := range s.Entities {
		cols := make([]storage.Column, len(e.Fields))
		for j, f := range e.Fields {
			cols[j] = storage.Column{Name: f, Type: storage.TInt}
		}
		tables[i] = storage.NewSchema(e.Name, cols...)
	}

	// Each copy's rows are seeded in spec order, so the pk of (entity, row
	// index, copy) is arithmetic: copies are contiguous pk ranges.
	pkOf := func(e *Entity, idx, copy int) int64 {
		return int64(copy*len(e.Rows) + idx + 1)
	}

	w := &chaos.Workload{
		Name:   "genmix/" + s.Name,
		Tables: tables,
		Replay: fmt.Sprintf("go run ./cmd/adhocgen -chaos %s -scale %d", s.Name, scale),
		Seed: func(txn *engine.Txn) error {
			for copy := 0; copy < scale; copy++ {
				for _, e := range s.Entities {
					for _, row := range e.Rows {
						vals := make(map[string]storage.Value, len(e.Fields))
						for j, f := range e.Fields {
							vals[f] = row[j]
						}
						if _, err := txn.Insert(e.Name, vals); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
		Op: func(rng *rand.Rand, txn *client.Txn) error {
			call := s.Calls[rng.Intn(len(s.Calls))]
			copy := rng.Intn(scale)
			op, _ := s.op(call.Op)
			return runWireOp(s, txn, op, call.Args, copy, pkOf)
		},
		Check: func(eng *engine.Engine) (string, []string) {
			return checkMixInvariants(s, eng, scale, pkOf)
		},
	}
	return w, nil
}

// runWireOp executes one call against copy's world over the wire, with the
// section correctly protected: every read row is locked FOR UPDATE inside
// the same transaction that writes (transfers lock in ascending-pk order).
// A failed guard is a benign no-op — the transaction commits having only
// read.
func runWireOp(s *Spec, txn *client.Txn, op *Op, args []int64, copy int, pkOf func(*Entity, int, int) int64) error {
	target, _ := s.entity(op.Target.Entity)
	pk := pkOf(target, op.Target.Index, copy)
	switch op.Kind {
	case OpWrite:
		vals, ok, err := readWireRow(txn, target, pk, true)
		if err != nil || !ok {
			return err
		}
		if !guardOK(op.Guard, args, vals) {
			return nil
		}
		_, err = txn.Update(op.Target.Entity, storage.ByPK(pk), writeSet(op, args, vals))
		return err
	case OpTransfer:
		to, _ := s.entity(op.To.Entity)
		toPK := pkOf(to, op.To.Index, copy)
		// Ascending-pk lock order across all workers: no deadlocks by
		// construction.
		first, second := pk, toPK
		if op.To.Entity == op.Target.Entity && toPK < pk {
			first, second = toPK, pk
		}
		var fromVals, toVals map[string]int64
		var fromOK, toOK bool
		var err error
		readInto := func(p int64) (map[string]int64, bool, error) {
			if p == pk {
				fromVals, fromOK, err = readWireRow(txn, target, p, true)
				return fromVals, fromOK, err
			}
			toVals, toOK, err = readWireRow(txn, to, p, true)
			return toVals, toOK, err
		}
		for _, p := range []int64{first, second} {
			if _, _, err = readInto(p); err != nil {
				return err
			}
		}
		if !fromOK || !toOK || !guardOK(op.Guard, args, fromVals) {
			return nil
		}
		amt := int64(1)
		if len(args) > 0 {
			amt = args[0]
		}
		if _, err = txn.Update(op.Target.Entity, storage.ByPK(pk),
			map[string]storage.Value{op.Col: fromVals[op.Col] - amt}); err != nil {
			return err
		}
		_, err = txn.Update(op.To.Entity, storage.ByPK(toPK),
			map[string]storage.Value{op.Col: toVals[op.Col] + amt})
		return err
	case OpDelete:
		_, ok, err := readWireRow(txn, target, pk, true)
		if err != nil || !ok {
			return err
		}
		if op.Child != "" {
			if _, err := txn.Delete(op.Child, storage.Eq{Col: op.RefCol, Val: pk}); err != nil {
				return err
			}
		}
		_, err = txn.Delete(op.Target.Entity, storage.ByPK(pk))
		return err
	case OpInsertRef:
		_, ok, err := readWireRow(txn, target, pk, true)
		if err != nil || !ok {
			return err
		}
		child, _ := s.entity(op.Child)
		vals := make(map[string]storage.Value, len(child.Fields))
		for _, f := range child.Fields {
			vals[f] = int64(0)
		}
		vals[op.RefCol] = pk
		_, err = txn.Insert(op.Child, vals)
		return err
	}
	return fmt.Errorf("scenario: unknown op kind %v", op.Kind)
}

// readWireRow reads one row by pk over the wire, optionally FOR UPDATE,
// returning its columns by name. ok is false when the row is gone.
func readWireRow(txn *client.Txn, e *Entity, pk int64, forUpdate bool) (map[string]int64, bool, error) {
	lock := wire.LockNone
	if forUpdate {
		lock = wire.LockForUpdate
	}
	rows, err := txn.Select(e.Name, storage.ByPK(pk), lock)
	if err != nil {
		return nil, false, err
	}
	if len(rows.Rows) == 0 {
		return nil, false, nil
	}
	vals := make(map[string]int64, len(rows.Cols))
	for i, c := range rows.Cols {
		if v, ok := rows.Rows[0][i].(int64); ok {
			vals[c] = v
		}
	}
	return vals, true, nil
}

// checkMixInvariants evaluates the spec's chaos-safe invariants against the
// final (or recovered) state in one snapshot transaction.
func checkMixInvariants(s *Spec, eng *engine.Engine, scale int, pkOf func(*Entity, int, int) int64) (string, []string) {
	txn := eng.Begin(engine.IsolationDefault)
	defer func() { _ = txn.Rollback() }()

	// One read of everything: per-entity pk -> col -> value.
	state := make(map[string]map[int64]map[string]int64, len(s.Entities))
	for i := range s.Entities {
		e := &s.Entities[i]
		rows, err := txn.Select(e.Name, storage.All{}, engine.ForUpdate)
		if err != nil {
			return "", []string{fmt.Sprintf("state probe %s: %v", e.Name, err)}
		}
		schema := eng.Schema(e.Name)
		byPK := make(map[int64]map[string]int64, len(rows))
		for _, row := range rows {
			pk, _ := row.Get(schema, storage.PKColumn).(int64)
			vals := make(map[string]int64, len(e.Fields))
			for _, f := range e.Fields {
				v, _ := row.Get(schema, f).(int64)
				vals[f] = v
			}
			byPK[pk] = vals
		}
		state[e.Name] = byPK
	}

	var observed []string
	var viols []string
	checked := 0
	for _, inv := range s.Invariants {
		switch inv.Kind {
		case InvConserve:
			checked++
			e, _ := s.entity(inv.Entity)
			var base int64
			for _, row := range e.Rows {
				base += row[indexOf(e.Fields, inv.Col)]
			}
			want := base * int64(scale)
			var sum int64
			for _, vals := range state[inv.Entity] {
				sum += vals[inv.Col]
			}
			observed = append(observed, fmt.Sprintf("sum(%s.%s)=%d", inv.Entity, inv.Col, sum))
			if sum != want {
				viols = append(viols, fmt.Sprintf("conserve %s.%s: sum %d, want %d", inv.Entity, inv.Col, sum, want))
			}
		case InvBound:
			checked++
			pks := make([]int64, 0, len(state[inv.Entity]))
			for pk := range state[inv.Entity] {
				pks = append(pks, pk)
			}
			sort.Slice(pks, func(i, j int) bool { return pks[i] < pks[j] })
			inBound := 0
			for _, pk := range pks {
				vals := state[inv.Entity][pk]
				if !cmpOK(vals[inv.Col], inv.Cmp, evalVal(inv.Rhs, nil, vals)) {
					viols = append(viols, fmt.Sprintf("bound %s[pk=%d].%s=%d violates %s %s %s",
						inv.Entity, pk, inv.Col, vals[inv.Col], inv.Col, inv.Cmp, valStr(inv.Rhs)))
				} else {
					inBound++
				}
			}
			observed = append(observed, fmt.Sprintf("bound(%s.%s) %d/%d rows ok", inv.Entity, inv.Col, inBound, len(pks)))
		case InvRefInt:
			checked++
			live := state[inv.Entity]
			orphans := 0
			for pk, vals := range state[inv.Child] {
				if _, ok := live[vals[inv.RefCol]]; !ok {
					orphans++
					viols = append(viols, fmt.Sprintf("refint %s[pk=%d].%s=%d references no live %s row",
						inv.Child, pk, inv.RefCol, vals[inv.RefCol], inv.Entity))
				}
			}
			observed = append(observed, fmt.Sprintf("%s rows=%d orphans=%d", inv.Child, len(state[inv.Child]), orphans))
		case InvApplied:
			// Not chaos-safe: blind connection-loss retries legitimately
			// double-apply acknowledged calls.
		}
	}
	if checked == 0 {
		observed = append(observed, "no chaos-safe invariants")
	}
	return strings.Join(observed, " "), viols
}
