package main

import (
	"sort"

	"adhoctx/internal/obs"
	"adhoctx/internal/wire"
)

// countedLayers fills the per-layer metrics every window can measure without
// wrappers: differences of the stack's own registry instruments and of the Go
// runtime's counters between the two quiet readings, and the checkpoint
// timings.
func (r *windowResult) countedLayers(a, b counters, ck *checkpoints) {
	txns := float64(b.committed - a.committed)
	count := func(name string) float64 { return float64(b.reg.c[name] - a.reg.c[name]) }
	hist := func(name string) obs.HistogramSnapshot { return histDelta(a.reg.h[name], b.reg.h[name]) }
	us := func(h obs.HistogramSnapshot, q float64) float64 { return histQuantile(h, q) / 1e3 }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m := r.layer

	stmt, commit := hist("engine_statement_seconds"), hist("engine_commit_seconds")
	m["engine.stmt_us_p50"] = us(stmt, 0.50)
	m["engine.commit_us_p50"] = us(commit, 0.50)
	m["engine.commit_us_p99"] = us(commit, 0.99)
	m["engine.statements_per_txn"] = count("engine_statements_total") / txns
	m["engine.rollbacks_per_txn"] = count("engine_rollbacks_total") / txns
	m["engine.snapshot_ms_p50"] = median(ck.snapshotMS)
	m["engine.snapshot_ms_max"] = summarize(ck.snapshotMS, "").Max

	wait := hist("lock_wait_seconds")
	m["lockmgr.acquires_per_txn"] = count("lock_acquires_total") / txns
	m["lockmgr.waits_per_ktxn"] = 1000 * count("lock_waits_total") / txns
	m["lockmgr.wait_us_p50"] = us(wait, 0.50)
	m["lockmgr.wait_us_p99"] = us(wait, 0.99)
	m["lockmgr.wait_us_per_txn"] = float64(wait.Sum) / 1e3 / txns
	m["lockmgr.deadlocks"] = count("lock_deadlocks_total")
	m["lockmgr.slow_paths"] = count("lock_slow_paths_total")

	m["occ.commits"] = count("engine_occ_commits_total")
	m["occ.conflicts"] = count("engine_occ_conflicts_total")
	m["occ.conflict_frac"] = ratio(m["occ.conflicts"], m["occ.commits"]+m["occ.conflicts"])

	m["wal.appends_per_txn"] = count("wal_appends_total") / txns
	m["wal.syncs_per_txn"] = count("wal_fsyncs_total") / txns
	m["wal.records_per_sync"] = ratio(float64(hist("wal_group_commit_batch_size").Sum), count("wal_group_commits_total"))

	m["server.sessions_accepted"] = float64(b.reg.c["server_sessions_accepted_total"])
	m["server.request_errors"] = count("server_request_errors_total")

	m["disk.checkpoint_ms_p50"] = median(ck.writeMS)
	m["disk.checkpoint_ms_max"] = summarize(ck.writeMS, "").Max
	m["disk.checkpoint_bytes"] = float64(ck.bytes)
	m["disk.dir_bytes_per_txn"] = float64(b.dirBytes-a.dirBytes) / txns

	m["repl.apply_us_p50"] = us(hist("repl_apply_seconds"), 0.50)
	m["repl.records_per_ship"] = ratio(count("wal_appends_total"), count("repl_shipped_batches_total"))

	m["host.steal_frac"] = ratio(float64(b.steal-a.steal), float64(b.jiffies-a.jiffies))
	m["go.cpu_us_per_txn"] = float64(b.cpuNS-a.cpuNS) / 1e3 / txns
	m["go.allocs_per_txn"] = float64(b.mallocs-a.mallocs) / txns
	m["go.alloc_bytes_per_txn"] = float64(b.bytes-a.bytes) / txns
	m["go.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	m["go.gc_pause_ms_total"] = float64(b.gcPauseNS-a.gcPauseNS) / 1e6
}

// histQuantile estimates the q-quantile of a registry histogram. Its buckets
// are powers of two, [2^i, 2^(i+1)); the estimate interpolates linearly
// inside the bucket the rank falls in, so it is good to a few tens of percent
// — enough to place a layer, not to compare two runs that land in one bucket.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		if n > 0 && cum+float64(n) >= rank {
			lo, hi := float64(obs.BucketUpper(i))/2, float64(obs.BucketUpper(i))
			return lo + (hi-lo)*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	return float64(h.Max)
}

// tracedLayers fills the metrics that need the wrappers, from the records
// whose interval lies inside [from, to] (tracer time).
func (r *windowResult) tracedLayers(tr *tracer, from, to int64, txns float64) {
	in := func(start, end int64) bool { return start >= from && end <= to }
	m := r.layer

	// Client calls.
	byCall := make(map[callKind][]float64)
	var retryGapUS float64
	for _, c := range tr.clients {
		for _, call := range c.calls {
			if !in(call.start, call.end) {
				continue
			}
			d := float64(call.end-call.start) / 1e3
			kind := call.kind
			switch kind {
			case callUpdate, callInsert:
				kind = callSelect // one statement population
			case callRetryGap:
				retryGapUS += d
			}
			byCall[kind] = append(byCall[kind], d)
		}
	}
	for _, v := range byCall {
		sort.Float64s(v)
	}
	m["client.begin_us_p50"] = percentile(byCall[callBegin], 0.50)
	m["client.stmt_us_p50"] = percentile(byCall[callSelect], 0.50)
	m["client.stmt_us_p99"] = percentile(byCall[callSelect], 0.99)
	m["client.commit_us_p50"] = percentile(byCall[callCommit], 0.50)
	m["client.commit_us_p99"] = percentile(byCall[callCommit], 0.99)
	// A retry gap is a failed commit, the backoff sleep and the next BEGIN;
	// what is left after a typical commit and begin is the backoff.
	backoff := retryGapUS - float64(len(byCall[callRetryGap]))*(m["client.commit_us_p50"]+m["client.begin_us_p50"])
	m["client.backoff_us_per_txn"] = max(0, backoff) / txns

	// Both ends of every connection, joined by (connection, frame ordinal).
	var frames, wireBytes float64
	var transit []float64
	byOp := make(map[wire.Op][]float64)
	for addr, cc := range tr.clientConns {
		sc := tr.serverConns[addr]
		for i, f := range cc.frames {
			if !in(f.start, f.end) {
				continue
			}
			frames++
			wireBytes += float64(f.bytes)
			if sc == nil || i >= len(sc.frames) {
				continue
			}
			s := sc.frames[i]
			handle := float64(s.end - s.start)
			transit = append(transit, (float64(f.end-f.start)-handle)/1e3)
			byOp[wire.Op(s.op)] = append(byOp[wire.Op(s.op)], handle/1e3)
		}
		r.codec = append(r.codec, pairFrames(cc)...)
	}
	sort.Float64s(transit)
	for _, v := range byOp {
		sort.Float64s(v)
	}
	m["client.round_trips_per_txn"] = frames / txns
	m["wire.bytes_per_txn"] = wireBytes / txns
	m["wire.transit_us_p50"] = percentile(transit, 0.50)
	m["server.begin_us_p50"] = percentile(byOp[wire.OpBegin], 0.50)
	m["server.select_us_p50"] = percentile(byOp[wire.OpSelect], 0.50)
	m["server.update_us_p50"] = percentile(byOp[wire.OpUpdate], 0.50)
	m["server.commit_us_p50"] = percentile(byOp[wire.OpCommit], 0.50)
	m["server.commit_us_p99"] = percentile(byOp[wire.OpCommit], 0.99)

	// Devices and the shipper.
	seconds := float64(to-from) / 1e9
	timing := func(ivs []interval) (us []float64, busy, n float64) {
		for _, iv := range ivs {
			if in(iv.start, iv.end) {
				us = append(us, float64(iv.end-iv.start)/1e3)
				busy += float64(iv.end-iv.start) / 1e9
				n += float64(iv.n)
			}
		}
		sort.Float64s(us)
		return us, busy, n
	}
	appendUS, _, _ := timing(tr.leader.appends)
	syncUS, syncBusy, syncBytes := timing(tr.leader.syncs)
	m["disk.append_us_p50"] = percentile(appendUS, 0.50)
	m["disk.sync_us_p50"] = percentile(syncUS, 0.50)
	m["disk.sync_us_p99"] = percentile(syncUS, 0.99)
	m["disk.sync_busy_frac"] = syncBusy / seconds
	m["disk.bytes_per_sync"] = 0
	if len(syncUS) > 0 {
		m["disk.bytes_per_sync"] = syncBytes / float64(len(syncUS))
	}
	shipUS, shipBusy, _ := timing(tr.ships)
	m["repl.ship_us_p50"] = percentile(shipUS, 0.50)
	m["repl.ship_us_p99"] = percentile(shipUS, 0.99)
	m["repl.ship_busy_frac"] = shipBusy / seconds
	m["repl.follower_sync_us_p50"] = 0
	if tr.follow != nil {
		folUS, _, _ := timing(tr.follow.syncs)
		m["repl.follower_sync_us_p50"] = percentile(folUS, 0.50)
	}

	r.spans = buildSpans(tr, from, to)
	m["trace.spans"] = float64(len(r.spans))
	m["trace.unaccounted_frac"] = unaccountedFrac(r.spans)
}

// pairFrames returns the captured (request, response) payload pairs of one
// client-end connection.
func pairFrames(c *tracedConn) [][2][]byte {
	n := min(len(c.reqs), len(c.resps))
	out := make([][2][]byte, n)
	for i := range out {
		out[i] = [2][]byte{c.reqs[i], c.resps[i]}
	}
	return out
}
