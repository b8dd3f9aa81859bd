package engine

import (
	"time"

	"adhoctx/internal/obs"
)

// counterID names one engine event counter.
type counterID int

const (
	cBegins counterID = iota
	cCommits
	cRollbacks
	cDeadlocks
	cSerializationErr
	cLockTimeouts
	cStatements
	// cWALFsyncs counts durable commits (WAL appends). The device-level
	// flush count lives on the WAL itself (wal_fsyncs_total), which under
	// group commit is smaller — the batching win, made observable.
	cWALFsyncs
	cRetries
	cRetryBackoff // nanoseconds; exposed as seconds
	cOCCCommits
	cOCCConflicts
	numCounters
)

// counterNames are the registry series the counters appear under.
var counterNames = [numCounters]string{
	cBegins:           "engine_begins_total",
	cCommits:          "engine_commits_total",
	cRollbacks:        "engine_rollbacks_total",
	cDeadlocks:        "engine_deadlocks_total",
	cSerializationErr: "engine_serialization_failures_total",
	cLockTimeouts:     "engine_lock_timeouts_total",
	cStatements:       "engine_statements_total",
	cWALFsyncs:        "engine_wal_fsyncs_total",
	cRetries:          "engine_txn_retries_total",
	cRetryBackoff:     "engine_retry_backoff_seconds_total",
	cOCCCommits:       "engine_occ_commits_total",
	cOCCConflicts:     "engine_occ_conflicts_total",
}

// engineMetrics is the engine's instrument set. Each event has exactly one
// counter, bumped at one place and read by both Engine.Stats and the
// registry. The counters exist from New — private to the engine until WireObs
// hands it a registry's — while the histograms and gauges stay nil, and
// time.Now unpaid, until then.
type engineMetrics struct {
	c             [numCounters]*obs.Counter
	stmtSeconds   *obs.Histogram
	commitSeconds *obs.Histogram
	// oldVersions totals the versions beyond each row's newest (summed over
	// the engines sharing a registry); watermarkLag is the current CSN minus
	// the snapshot watermark at the last commit or replayed record.
	oldVersions  *obs.Gauge
	watermarkLag *obs.Gauge
}

// newEngineMetrics resolves the instruments from reg; a nil reg yields
// private counters and no histograms.
func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	m := &engineMetrics{
		stmtSeconds:   reg.Histogram("engine_statement_seconds"),
		commitSeconds: reg.Histogram("engine_commit_seconds"),
		oldVersions:   reg.Gauge("engine_mvcc_old_versions"),
		watermarkLag:  reg.Gauge("engine_snapshot_watermark_lag"),
	}
	for i, name := range counterNames {
		if reg == nil {
			m.c[i] = new(obs.Counter)
		} else {
			m.c[i] = reg.Counter(name)
		}
	}
	return m
}

// count bumps one event counter.
func (e *Engine) count(c counterID) { e.metrics.Load().c[c].Inc() }

// obsTracer adapts the registry's span tracker to the Tracer interface,
// chaining to any previously installed tracer so WireObs composes with
// analyzer tracing.
type obsTracer struct {
	spans *obs.SpanTracker
	next  Tracer
}

func (o *obsTracer) Trace(ev Event) {
	te := obs.TxnEvent{TxnID: ev.TxnID, Kind: ev.Kind.String(), Table: ev.Table, Tag: ev.Tag}
	switch ev.Kind {
	case EvBegin:
		te.Begin = true
	case EvCommit:
		te.End, te.Outcome = true, "commit"
	case EvRollback:
		te.End, te.Outcome = true, "rollback"
	}
	o.spans.Observe(te)
	if o.next != nil {
		o.next.Trace(ev)
	}
}

// WireObs attaches the engine (and its lock manager and WAL) to reg: the
// event counters move onto the registry's series, carrying what they have
// counted so far, so Stats stays monotone and the series start from the
// engine's whole life; statement and commit latencies start feeding
// histograms; the MVCC gauges start from the engine's chains; and a
// span-tracking tracer is chained in front of any tracer
// already installed. Engines wired to one registry share its series, and
// their Stats read the shared totals. Wire before starting load: an event
// counted while the counters are being moved can land on the retired one. A
// nil registry is a no-op, so callers can wire unconditionally.
func (e *Engine) WireObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	old, m := e.metrics.Load(), newEngineMetrics(reg)
	e.mu.Lock()
	e.metrics.Store(m)
	if m.oldVersions != old.oldVersions {
		old.oldVersions.Add(-e.oldVersions)
		m.oldVersions.Add(e.oldVersions)
	}
	e.mu.Unlock()
	for i, c := range m.c {
		if c != old.c[i] {
			c.Add(old.c[i].Value())
		}
	}
	e.lm.WireObs(reg)
	e.log.WireObs(reg)
	var next Tracer
	if cur := e.tracer.Load(); cur != nil {
		next = *cur
	}
	e.SetTracer(&obsTracer{spans: reg.Spans(), next: next})
}

// obsNow returns a statement start time, or the zero time while no histogram
// is wired so the matching obsStmtDone is free.
func (e *Engine) obsNow() time.Time {
	if e.metrics.Load().stmtSeconds == nil {
		return time.Time{}
	}
	return time.Now()
}

// obsStmtDone records one statement latency sample started at obsNow.
func (e *Engine) obsStmtDone(start time.Time) {
	if !start.IsZero() {
		e.metrics.Load().stmtSeconds.Since(start)
	}
}
