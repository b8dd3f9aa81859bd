package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"adhoctx/internal/wire"
)

// span is one timed step with the step that caused it. Spans of one logical
// transaction share Txn (client index # sequence number). Times are
// nanoseconds since the traced window's tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Txn    string `json:"txn,omitempty"`
}

// buildSpans turns the tracer's records inside [from, to] into one tree per
// logical transaction:
//
//	txn                        root, from the driver loop
//	  client.<call>            begin, select/update/insert, commit, retry_gap
//	    wire.roundtrip         client end of the connection
//	      server.<op>          server end, same (connection, frame ordinal)
//	        disk.append/sync   the commit request that contains the flush
//	        repl.ship
//	          repl.follower_sync
//
// A round trip belongs to the client call that contains it most tightly:
// a call is its round trip plus a few microseconds of codec, so only two
// calls that start and end within microseconds of each other can be swapped,
// and then their spans are interchangeable. With group commit two commit
// requests can wait on one flush; the flush hangs under the earlier one and
// the other's wait shows as its own server self time.
func buildSpans(tr *tracer, from, to int64) []span {
	var spans []span
	add := func(parent int, name string, start, end int64, txn string) int {
		spans = append(spans, span{ID: len(spans), Parent: parent, Name: name, Start: start, End: end, Txn: txn})
		return len(spans) - 1
	}

	// Roots and client calls. calls[c] stays in time order for the join.
	calls := make([][]int, len(tr.clients))
	for c, rec := range tr.clients {
		roots := make(map[int32]int)
		for _, t := range rec.txns {
			if t.start >= from && t.end <= to {
				roots[t.seq] = add(-1, "txn", t.start, t.end, fmt.Sprintf("c%d#%d", c, t.seq))
			}
		}
		for _, call := range rec.calls {
			if root, ok := roots[call.seq]; ok {
				calls[c] = append(calls[c], add(root, callNames[call.kind], call.start, call.end, spans[root].Txn))
			}
		}
	}

	// Round trips under calls, server requests under round trips.
	var commits []int // server.commit spans, in start order after the sort below
	for addr, cc := range tr.clientConns {
		sc := tr.serverConns[addr]
		for i, f := range cc.frames {
			parent := tightestCall(spans, calls, f.start, f.end)
			if parent < 0 {
				continue
			}
			rt := add(parent, "wire.roundtrip", f.start, f.end, spans[parent].Txn)
			if sc == nil || i >= len(sc.frames) {
				continue
			}
			s := sc.frames[i]
			id := add(rt, "server."+wire.Op(s.op).String(), s.start, s.end, spans[rt].Txn)
			if wire.Op(s.op) == wire.OpCommit {
				commits = append(commits, id)
			}
		}
	}
	sort.Slice(commits, func(i, j int) bool { return spans[commits[i]].Start < spans[commits[j]].Start })

	under := func(candidates []int, name string, ivs []interval) []int {
		var out []int
		for _, iv := range ivs {
			if parent := earliestContaining(spans, candidates, iv.start, iv.end); parent >= 0 {
				out = append(out, add(parent, name, iv.start, iv.end, spans[parent].Txn))
			}
		}
		return out
	}
	under(commits, "disk.append", tr.leader.appends)
	under(commits, "disk.sync", tr.leader.syncs)
	ships := under(commits, "repl.ship", tr.ships)
	if tr.follow != nil {
		under(ships, "repl.follower_sync", tr.follow.syncs)
	}
	return spans
}

// tightestCall returns the call span that contains [start, end] with the
// least slack, or -1. Each client's calls are disjoint and in time order.
func tightestCall(spans []span, calls [][]int, start, end int64) int {
	best, bestSlack := -1, int64(0)
	for _, ids := range calls {
		i := sort.Search(len(ids), func(i int) bool { return spans[ids[i]].Start > start }) - 1
		if i < 0 {
			continue
		}
		c := spans[ids[i]]
		if end > c.End {
			continue
		}
		if slack := (start - c.Start) + (c.End - end); best < 0 || slack < bestSlack {
			best, bestSlack = ids[i], slack
		}
	}
	return best
}

// earliestContaining returns the earliest-starting candidate span that
// contains [start, end], or -1. candidates are in start order and at most
// `clients` of them are open at once.
func earliestContaining(spans []span, candidates []int, start, end int64) int {
	i := sort.Search(len(candidates), func(i int) bool { return spans[candidates[i]].Start > start }) - 1
	best := -1
	for k := i; k >= 0 && k > i-clients; k-- {
		if c := spans[candidates[k]]; c.Start <= start && end <= c.End {
			best = candidates[k]
		}
	}
	return best
}

// selfTime is a span's duration minus the part of it its children cover;
// overlapping children are counted once and clipped to the span.
func selfTime(s span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered, edge := int64(0), s.Start
	for _, c := range children {
		lo, hi := max(c.Start, edge), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return (s.End - s.Start) - covered
}

// layerOf names the layer a span's self time is charged to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name // "txn": the root's own time is what the trace cannot place
}

// layerSelfTimes returns, per layer, each logical transaction's summed self
// time in that layer (nanoseconds, one entry per root, in root order).
func layerSelfTimes(spans []span) map[string][]float64 {
	children := make(map[int][]span)
	rootOf := make([]int, len(spans))
	var roots []int
	for _, s := range spans { // parents always precede their children
		if s.Parent < 0 {
			rootOf[s.ID] = s.ID
			roots = append(roots, s.ID)
			continue
		}
		rootOf[s.ID] = rootOf[s.Parent]
		children[s.Parent] = append(children[s.Parent], s)
	}
	index := make(map[int]int, len(roots))
	for i, id := range roots {
		index[id] = i
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		layer := layerOf(s.Name)
		if out[layer] == nil {
			out[layer] = make([]float64, len(roots))
		}
		out[layer][index[rootOf[s.ID]]] += float64(selfTime(s, children[s.ID]))
	}
	return out
}

// unaccountedFrac is the share of the median transaction's latency that the
// layers' median self times do not add up to (ROADMAP: "phases sum to within
// 10% of the end-to-end p50"). It is reported, not gated.
func unaccountedFrac(spans []span) float64 {
	var total []float64
	for _, s := range spans {
		if s.Parent < 0 {
			total = append(total, float64(s.End-s.Start))
		}
	}
	if len(total) == 0 {
		return 0
	}
	var placed float64
	for layer, self := range layerSelfTimes(spans) {
		if layer != "txn" {
			placed += median(self)
		}
	}
	return 1 - placed/median(total)
}

// workloadSpans is one workload's traced window.
type workloadSpans struct {
	workload string
	spans    []span
}

// writeSpans writes one JSON object per span, each naming its workload (span
// ids restart at 0 in every workload).
func writeSpans(path string, traces []workloadSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range traces {
		for _, s := range t.spans {
			err = enc.Encode(struct {
				Workload string `json:"workload"`
				span
			}{t.workload, s})
			if err != nil {
				break
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
