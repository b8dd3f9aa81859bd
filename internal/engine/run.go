package engine

import (
	"math/rand"
	"time"
)

// Done reports whether the transaction has committed or rolled back
// (including internal aborts after deadlocks and serialization failures).
func (t *Txn) Done() bool { return t.done }

// Run executes fn inside a transaction at the given isolation level,
// committing on success and rolling back on error. Errors from fn and from
// commit are returned unchanged so callers can branch on ErrDeadlock /
// ErrSerialization and retry.
//
// A panic in fn rolls the transaction back before re-panicking: when an
// application server dies mid-request (§3.4.2's crash points included), the
// database aborts its in-flight transaction — locks must not outlive the
// connection.
func (e *Engine) Run(iso Isolation, fn func(*Txn) error) error {
	return e.RunMode(e.cfg.Mode, iso, fn)
}

// RunMode is Run with an explicit execution mode (BeginMode semantics).
func (e *Engine) RunMode(mode Mode, iso Isolation, fn func(*Txn) error) error {
	t := e.BeginMode(mode, iso)
	defer func() {
		if rec := recover(); rec != nil {
			if !t.Done() {
				_ = t.Rollback()
			}
			panic(rec)
		}
	}()
	if err := fn(t); err != nil {
		if !t.Done() {
			_ = t.Rollback()
		}
		return err
	}
	if t.Done() {
		// fn swallowed an abort; surface it as a serialization problem.
		return ErrTxnDone
	}
	return t.Commit()
}

// RunWithRetry runs fn like Run, retrying up to attempts times on retryable
// errors (deadlock, serialization failure) with a short jittered backoff —
// the loop (and the backoff) every studied application wraps around its
// database transactions in the DBT variants. Without jitter, concurrent
// retriers whose victim selection is deterministic can livelock.
func (e *Engine) RunWithRetry(iso Isolation, attempts int, fn func(*Txn) error) error {
	return e.RunModeWithRetry(e.cfg.Mode, iso, attempts, fn)
}

// RunModeWithRetry is RunWithRetry with an explicit execution mode. Under
// ModeOCC the retried error is typically ErrOCCConflict — validation failed
// because a concurrent transaction committed into the read set — rather than
// a deadlock, but the loop is the same one.
func (e *Engine) RunModeWithRetry(mode Mode, iso Isolation, attempts int, fn func(*Txn) error) error {
	var err error
	for i := 0; i < attempts; i++ {
		err = e.RunMode(mode, iso, fn)
		if err == nil || !IsRetryable(err) {
			return err
		}
		step := i + 1
		if step > 8 {
			step = 8
		}
		backoff := time.Duration(rand.Intn(step*100)+50) * time.Microsecond
		e.count(cRetries)
		e.metrics.Load().c[cRetryBackoff].Add(int64(backoff))
		time.Sleep(backoff)
	}
	return err
}
