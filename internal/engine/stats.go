package engine

// StatsSnapshot is a point-in-time reading of the engine's event counters —
// the same obs counters the registry exposes as engine_*_total once WireObs
// has run, so the two can never disagree. Benches report them next to
// throughput numbers so the "why" behind Figure 3 (deadlocks, serialization
// failures) is visible.
type StatsSnapshot struct {
	Begins           int64
	Commits          int64
	Rollbacks        int64
	Deadlocks        int64
	SerializationErr int64
	LockTimeouts     int64
	Statements       int64
	OCCCommits       int64
	OCCConflicts     int64
}

// Stats reads the engine's counters.
func (e *Engine) Stats() StatsSnapshot {
	m := e.metrics.Load().c
	return StatsSnapshot{
		Begins:           m[cBegins].Value(),
		Commits:          m[cCommits].Value(),
		Rollbacks:        m[cRollbacks].Value(),
		Deadlocks:        m[cDeadlocks].Value(),
		SerializationErr: m[cSerializationErr].Value(),
		LockTimeouts:     m[cLockTimeouts].Value(),
		Statements:       m[cStatements].Value(),
		OCCCommits:       m[cOCCCommits].Value(),
		OCCConflicts:     m[cOCCConflicts].Value(),
	}
}

// Sub returns s - o, counter by counter.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Begins:           s.Begins - o.Begins,
		Commits:          s.Commits - o.Commits,
		Rollbacks:        s.Rollbacks - o.Rollbacks,
		Deadlocks:        s.Deadlocks - o.Deadlocks,
		SerializationErr: s.SerializationErr - o.SerializationErr,
		LockTimeouts:     s.LockTimeouts - o.LockTimeouts,
		Statements:       s.Statements - o.Statements,
		OCCCommits:       s.OCCCommits - o.OCCCommits,
		OCCConflicts:     s.OCCConflicts - o.OCCConflicts,
	}
}
