package repair

import (
	"fmt"
	"strings"

	"adhoctx/internal/provenance"
	"adhoctx/internal/scenario"
)

// Target is one invariant-target row of a blamed schedule, with the last
// transaction that wrote it in the violating run.
type Target struct {
	Table string
	PK    int64
	// Writer is the last write to the row in the recovered WAL; HasWriter is
	// false when the row was seeded but never rewritten.
	Writer    provenance.Write
	HasWriter bool
	// Step is the index of the writer's commit annotation in the replayed
	// schedule trace, -1 when the trace carries none.
	Step int
}

// Blame explains one violating schedule of a buggy variant from provenance
// evidence: the schedule is replayed with capture (scenario.ReplayProbed),
// the terminal WAL is joined to call tags, and the invariant's target rows
// are attributed to the exact transactions that last wrote them — the
// transactions the emitted repair changes.
type Blame struct {
	Fix        *Fix
	ScheduleID string
	// Violation is the oracle error the replayed schedule reproduced.
	Violation string
	Targets   []Target

	ix *provenance.Index
}

// BlameSchedule replays the violating schedule against the buggy variant and
// builds its blame. The schedule must reproduce the violation — a blame over
// a clean run would attribute nothing.
func BlameSchedule(v *scenario.Variant, scheduleID string) (*Blame, error) {
	fix, err := ForVariant(v)
	if err != nil {
		return nil, err
	}
	rep, probe, err := scenario.ReplayProbed(v, scheduleID)
	if err != nil {
		return nil, fmt.Errorf("repair: blame %s: %w", v.Name, err)
	}
	if rep.Diverged {
		return nil, fmt.Errorf("repair: blame %s: schedule %s diverged on replay", v.Name, scheduleID)
	}
	if rep.Violation == nil {
		return nil, fmt.Errorf("repair: blame %s: schedule %s did not reproduce a violation", v.Name, scheduleID)
	}

	ix := provenance.FromRaw(probe.WAL)
	ix.AttachTags(probe.Tags)
	b := &Blame{
		Fix:        fix,
		ScheduleID: scheduleID,
		Violation:  rep.Violation.Err.Error(),
		ix:         ix,
	}
	for _, key := range targetRows(v.Spec, probe, ix, b.Violation) {
		t := Target{Table: key.table, PK: key.pk, Step: -1}
		if w, ok := ix.LastWriter(key.table, key.pk); ok {
			t.Writer, t.HasWriter = w, true
			t.Step = provenance.CommitStep(rep.Violation.Steps, w.TxnID)
		}
		b.Targets = append(b.Targets, t)
	}
	return b, nil
}

type blameKey struct {
	table string
	pk    int64
}

// targetRows resolves which rows a violation message implicates. The oracle
// prefixes invariant failures with "invariant <i>", which selects that
// invariant's rows; any other violation (serializability cycle, unexpected
// call error) falls back to every invariant's rows.
func targetRows(s *scenario.Spec, probe *scenario.Probe, ix *provenance.Index, violation string) []blameKey {
	invs := s.Invariants
	var idx int
	if _, err := fmt.Sscanf(violation, "invariant %d", &idx); err == nil && idx >= 0 && idx < len(invs) {
		invs = invs[idx : idx+1]
	}
	tables := map[string]bool{}
	var keys []blameKey
	seen := map[blameKey]bool{}
	add := func(k blameKey) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, inv := range invs {
		if inv.Kind == scenario.InvApplied {
			// The applied invariant audits one seeded row — blame exactly it.
			if pks := probe.PKs[inv.Entity]; inv.Row < len(pks) {
				add(blameKey{inv.Entity, pks[inv.Row]})
				continue
			}
		}
		tables[inv.Entity] = true
		if inv.Child != "" {
			tables[inv.Child] = true
		}
	}
	// Remaining invariants implicate whole tables: every row of the table
	// present in the recovered log, in the index's stable order.
	for _, r := range ix.Rows() {
		if tables[r.Table] {
			add(blameKey{r.Table, r.PK})
		}
	}
	return keys
}

// Format renders the blame as stable text: classification, the reproduced
// violation, each target row's last writer with its trace commit step, and
// the repair the classification emits.
func (b *Blame) Format() string {
	var sb strings.Builder
	fix := b.Fix
	fmt.Fprintf(&sb, "blame %s\n", fix.Target)
	fmt.Fprintf(&sb, "  schedule: %s\n", b.ScheduleID)
	prot := "none"
	if fix.Original != nil && fix.Original.Protect != "" {
		prot = string(fix.Original.Protect)
	}
	fmt.Fprintf(&sb, "  protection: %s\n", prot)
	if fix.Original != nil && fix.Original.Mutation != "" {
		fmt.Fprintf(&sb, "  mutation: %s\n", fix.Original.Mutation)
	}
	fmt.Fprintf(&sb, "  class: %s\n", fix.Class)
	fmt.Fprintf(&sb, "  violation: %s\n", b.Violation)
	for _, t := range b.Targets {
		fmt.Fprintf(&sb, "  target %s:%d\n", t.Table, t.PK)
		if !t.HasWriter {
			sb.WriteString("    no write in the recovered log\n")
			continue
		}
		fmt.Fprintf(&sb, "    last writer: %s\n", b.ix.Describe(t.Writer))
		if t.Step >= 0 {
			fmt.Fprintf(&sb, "    commit step: %d\n", t.Step)
		}
	}
	fmt.Fprintf(&sb, "  repair (%s): %s\n", fix.Strategy, fix.Note)
	fmt.Fprintf(&sb, "  re-prove: %s by exhaustive DFS\n", fix.RepairedName())
	return sb.String()
}
