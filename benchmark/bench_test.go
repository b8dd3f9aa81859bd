package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	// One hundred samples: p99 is the 99th, with one sample beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("percentile(1..100, 0.99) = %v, want 99", got)
	}

	// Median of windows: odd count takes the middle, even count the midpoint,
	// and the input order is left alone.
	windows := []float64{2300, 1800, 2400, 2350, 2000}
	if got := median(windows); got != 2300 {
		t.Errorf("median of five windows = %v, want 2300", got)
	}
	if windows[1] != 1800 {
		t.Error("median sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	s := summarize(windows, "1/s")
	if s.Median != 2300 || s.Min != 1800 || s.Max != 2400 || s.Q1 != 2000 || s.Q3 != 2350 || s.N != 5 || s.Unit != "1/s" {
		t.Errorf("summarize = %+v", s)
	}
}

func TestQuietWindowsKeepsTheUnstolenAndAtLeastTwo(t *testing.T) {
	for _, c := range []struct {
		name  string
		steal []float64
		want  []int
	}{
		{"all quiet", []float64{0.001, 0, 0.003, 0.002}, []int{1, 0, 3, 2}},
		{"two stolen", []float64{0.06, 0.001, 0.04, 0.015}, []int{1, 3}},
		{"three stolen keeps the least stolen too", []float64{0.06, 0.2, 0.002, 0.04}, []int{2, 3}},
		{"all stolen", []float64{0.3, 0.2, 0.4, 0.25}, []int{1, 3}},
		{"one window", []float64{0.5}, []int{0}},
		{"no steal accounting", []float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
	} {
		if got := quietWindows(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("%s: kept windows %v, want %v", c.name, got, c.want)
		}
	}
}

func TestGeneratorIsAFunctionOfSeedAndClient(t *testing.T) {
	sequence := func(w workload, seed int64, client int) string {
		g := newGenerator(w, seed, client)
		var b strings.Builder
		for i := 0; i < 300; i++ {
			b.WriteString(g.next().String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, w := range workloads {
		for client := 0; client < clients; client++ {
			if sequence(w, 7, client) != sequence(w, 7, client) {
				t.Errorf("%s client %d: same seed gave different statement sequences", w.name, client)
			}
			if sequence(w, 7, client) == sequence(w, 8, client) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same sequence", w.name, client)
			}
		}
		if sequence(w, 7, 0) == sequence(w, 7, 1) {
			t.Errorf("%s: clients 0 and 1 drew the same sequence", w.name)
		}
	}
	// read_mostly is 19 reads then one transfer, exactly.
	w, _ := findWorkload("read_mostly")
	g := newGenerator(w, 1, 0)
	for i := 1; i <= 60; i++ {
		if got, want := g.next().kind == kindTransfer, i%20 == 0; got != want {
			t.Fatalf("read_mostly transaction %d: transfer=%v, want %v", i, got, want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"given out of order", []span{{Start: 150, End: 170}, {Start: 110, End: 120}}, 70},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 180, End: 300}}, 60},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// A hand-built trace of one transfer by client 0 while client 1 sits in a
// long call that also contains client 0's round trip: the round trip must go
// to the tighter call, the server request under it, the flush under the
// commit request.
func TestBuildSpansJoinsEndsAndLayers(t *testing.T) {
	tr := newTracer(2)
	tr.clients[0].txns = []txnRec{{seq: 0, start: 1000, end: 9000}}
	tr.clients[0].calls = []callRec{{seq: 0, kind: callBegin, start: 1000, end: 2000}, {seq: 0, kind: callCommit, start: 5000, end: 9000}}
	tr.clients[1].txns = []txnRec{{seq: 0, start: 500, end: 9500}}
	tr.clients[1].calls = []callRec{{seq: 0, kind: callSelect, start: 600, end: 9400}}
	tr.clientConns["a"] = &tracedConn{frames: []frameRec{{start: 1100, end: 1900, op: 1}, {start: 5100, end: 8900, op: 2}}}
	tr.serverConns["a"] = &tracedConn{frames: []frameRec{{start: 1400, end: 1600, op: 1}, {start: 5400, end: 8600, op: 2}}}
	tr.clientConns["b"] = &tracedConn{frames: []frameRec{{start: 700, end: 9300, op: 4}}}
	tr.serverConns["b"] = &tracedConn{frames: []frameRec{{start: 800, end: 9200, op: 4}}}
	tr.leader = &timedDevice{syncs: []interval{{start: 6000, end: 8000, n: 272}}}

	spans := buildSpans(tr, 0, 10000)
	parentName := func(name, txn string) string {
		for _, s := range spans {
			if s.Name == name && s.Txn == txn {
				return spans[s.Parent].Name + "/" + spans[s.Parent].Txn
			}
		}
		return "missing"
	}
	for _, c := range [][3]string{
		{"server.begin", "c0#0", "wire.roundtrip/c0#0"},
		{"server.commit", "c0#0", "wire.roundtrip/c0#0"},
		{"server.select", "c1#0", "wire.roundtrip/c1#0"},
		{"disk.sync", "c0#0", "server.commit/c0#0"},
		{"client.commit", "c0#0", "txn/c0#0"},
	} {
		if got := parentName(c[0], c[1]); got != c[2] {
			t.Errorf("parent of %s in %s = %s, want %s", c[0], c[1], got, c[2])
		}
	}
	// Client 0's transaction: 8000 ns in all, of which the root keeps the
	// 3000 between begin and commit; the sync is 2000 of disk time.
	self := layerSelfTimes(spans)
	if got := self["disk"][0]; got != 2000 {
		t.Errorf("disk self time of c0#0 = %v, want 2000", got)
	}
	if got := self["txn"][0]; got != 3000 {
		t.Errorf("root self time of c0#0 = %v, want 3000", got)
	}
	var sum float64
	for _, v := range self {
		sum += v[0]
	}
	if sum != 8000 {
		t.Errorf("self times of c0#0 add up to %v, want the root's 8000", sum)
	}
}

func TestFrameScannerFollowsSplitFrames(t *testing.T) {
	stream := []byte("AHTX\x00\x02") // handshake
	stream = append(stream, 0, 0, 0, 3, 1, 4, 9)
	stream = append(stream, 0, 0, 0, 2, 1, 2)
	for _, chunk := range []int{1, 2, 5, len(stream)} {
		s := frameScanner{skip: handshakeBytes, keep: true}
		var ops []byte
		var sizes []int
		var payloads [][]byte
		if !bytes.Equal(stream[:4], []byte("AHTX")) || s.atBoundary() {
			t.Fatal("scanner must not be at a frame boundary before the handshake has passed")
		}
		for off := 0; off < len(stream); off += chunk {
			s.feed(stream[off:min(off+chunk, len(stream))], func(head [2]byte, size int, payload []byte) {
				ops, sizes, payloads = append(ops, head[1]), append(sizes, size), append(payloads, payload)
			})
		}
		if !slices.Equal(ops, []byte{4, 2}) || !slices.Equal(sizes, []int{7, 6}) {
			t.Errorf("chunk %d: ops %v sizes %v, want [4 2] [7 6]", chunk, ops, sizes)
		}
		if len(payloads) != 2 || !bytes.Equal(payloads[0], []byte{1, 4, 9}) || !bytes.Equal(payloads[1], []byte{1, 2}) {
			t.Errorf("chunk %d: payloads %v", chunk, payloads)
		}
		if !s.atBoundary() {
			t.Errorf("chunk %d: scanner not at a boundary after whole frames", chunk)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(m float64) summary {
		return summary{Median: m, Min: m * 0.7, Q1: m * 0.99, Q3: m * 1.01, Max: m * 1.3, N: 5}
	}
	noisy := func(m float64) summary {
		return summary{Median: m, Min: m * 0.7, Q1: m * 0.9, Q3: m * 1.05, Max: m * 1.3, N: 5}
	}
	for _, c := range []struct {
		name          string
		a, b          summary
		lowerIsBetter bool
		want          string
	}{
		{"throughput unchanged", steady(2300), steady(2310), false, "ok"},
		{"throughput down 5% within a 10% bound", steady(2300), steady(2185), false, "ok"},
		{"throughput down 15%", steady(2300), steady(1955), false, "regressed"},
		{"throughput up 15% is not a regression", steady(2300), steady(2645), false, "ok"},
		{"latency up 15%", steady(800), steady(920), true, "regressed"},
		{"latency down 15%", steady(800), steady(680), true, "ok"},
		{"medians agree but the quartiles spread 15%", noisy(2300), steady(2300), false, "unresolved"},
		{"a regression stays a regression in noise", noisy(2300), noisy(1900), false, "regressed"},
		{"metric gone from the new report", steady(800), summary{}, true, "missing"},
		{"metric absent from the base report", summary{}, steady(800), true, "missing"},
		{"heap that shrank now shrinks less", steady(-100), steady(-50), true, "regressed"},
		{"heap that shrank now shrinks more", steady(-100), steady(-120), true, "ok"},
		{"zero base, worse at all", summary{N: 5}, steady(5), true, "regressed"},
		{"zero base, still zero", summary{N: 5}, summary{N: 5}, true, "ok"},
	} {
		if _, got := verdict(c.a, c.b, c.lowerIsBetter, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	const manifestJSON = `{"end_to_end": [
		{"name": "txn_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "txn_p99_us", "unit": "us", "better": "lower", "bound": 0.15}]}`
	doc := func(perS, p99, failed float64) string {
		b, err := json.Marshal(report{SchemaVersion: schemaVersion, Workloads: []workloadReport{{
			Name: "transfer_durable",
			EndToEnd: map[string]summary{
				"txn_per_s": steady(perS), "txn_p99_us": steady(p99), "failed_frac": {Median: failed, N: 5},
			},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct {
		name      string
		a, b      string
		regressed bool
		rows      []string
	}{
		{"same", doc(2300, 1800, 0), doc(2290, 1810, 0), false, []string{"txn_per_s", "txn_p99_us", "failed_frac", "ok"}},
		{"p99 up 20%", doc(2300, 1800, 0), doc(2300, 2160, 0), true, []string{"regressed"}},
		{"failures appear", doc(2300, 1800, 0), doc(2300, 1800, 0.01), true, []string{"regressed"}},
		{"workload dropped", doc(2300, 1800, 0), `{"schema_version": 1, "workloads": []}`, true, []string{"transfer_durable", "missing"}},
		{"workload added", `{"schema_version": 1, "workloads": []}`, doc(2300, 1800, 0), true, []string{"transfer_durable", "missing"}},
		{"metric dropped", doc(2300, 1800, 0), strings.Replace(doc(2300, 1800, 0), "txn_p99_us", "renamed", 1), true, []string{"missing"}},
	} {
		var m manifest
		var a, b report
		for text, v := range map[string]any{manifestJSON: &m, c.a: &a, c.b: &b} {
			if err := json.Unmarshal([]byte(text), v); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		regressed, err := compare(&out, m, a, b)
		if err != nil || regressed != c.regressed {
			t.Errorf("%s: regressed=%v err=%v, want %v\n%s", c.name, regressed, err, c.regressed, out.String())
		}
		for _, want := range c.rows {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, want, out.String())
			}
		}
	}
	if _, err := compare(&bytes.Buffer{}, manifest{}, report{SchemaVersion: 1}, report{SchemaVersion: 2}); err == nil {
		t.Error("compare accepted two schema versions")
	}
	if _, err := compare(&bytes.Buffer{}, manifest{}, report{Env: environment{Rounds: 5, WindowS: 6}}, report{Env: environment{Rounds: 5, WindowS: 4}}); err == nil {
		t.Error("compare accepted two run shapes")
	}
}

// The whole benchmark at toy size: every workload through an untraced
// window, a traced window and the peel. Every metric BENCHMARK.json names
// must come out exactly once, and every output check must have run.
func TestSmokeEveryWorkloadEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack four times")
	}
	var bm struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bm.Workloads), len(workloads))
	}

	reports, err := run(runConfig{
		workloads: workloads, seed: 42, tmp: t.TempDir(), rounds: 1,
		window: 300 * time.Millisecond, traced: 300 * time.Millisecond, peel: 200 * time.Millisecond,
		warmUp: 50 * time.Millisecond, refBurst: 30 * time.Millisecond, minCommitted: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep.Name != bm.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, rep.Name, bm.Workloads[i].Name)
		}
		if len(rep.Violations) > 0 {
			t.Errorf("%s: output checks failed: %v", rep.Name, rep.Violations)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed", rep.Name, rep.Attempted, rep.Failed)
		}
		// Two windows ran (one untraced, one traced); the last check runs
		// once per client in each.
		want := map[string]int{
			"no lock held after drain": 2, "cold re-open = live leader": 2, "last acked commit recovered": 2 * clients,
		}
		switch rep.Name {
		case "hot_occ":
			want["stock decrements = orders = committed checkouts"] = 2
		case "transfer_replicated":
			want["follower = live leader"] = 2
			fallthrough
		default:
			want["balance sum conserved"] = 2
		}
		for check, n := range want {
			if got := count(rep.Checks, check); got != n {
				t.Errorf("%s: check %q ran %d times, want %d", rep.Name, check, got, n)
			}
		}

		for traced, listed := range map[bool][]struct{ Name, Unit string }{false: bm.EndToEnd, true: bm.PerLayer} {
			line, err := resultLine(&report{Workloads: []workloadReport{rep}}, traced)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct bool
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: result line is not JSON: %v\n%s", rep.Name, err, line)
			}
			if !got.Correct {
				t.Errorf("%s: result line says incorrect", rep.Name)
			}
			if len(got.Metrics) != len(listed) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", rep.Name, traced, len(got.Metrics), len(listed))
			}
			for _, m := range listed {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Value == nil || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) missing or wrong unit: %+v", rep.Name, traced, m.Name, m.Unit, v)
				}
				if strings.Count(string(line), `"`+m.Name+`"`) != 1 {
					t.Errorf("%s traced=%v: metric %s not printed exactly once", rep.Name, traced, m.Name)
				}
			}
		}
		if rep.PerLayer["server.sessions_accepted"].Median != clients {
			t.Errorf("%s: %v sessions accepted, want %d (one per pooled connection)",
				rep.Name, rep.PerLayer["server.sessions_accepted"].Median, clients)
		}
		if rep.PerLayer["trace.spans"].Median == 0 {
			t.Errorf("%s: traced window recorded no spans", rep.Name)
		}
	}
}

func count(xs []string, x string) int {
	n := 0
	for _, v := range xs {
		if v == x {
			n++
		}
	}
	return n
}
