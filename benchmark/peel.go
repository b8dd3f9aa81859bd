package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"adhoctx/internal/wire"
)

// runPeel drives the same generated transactions straight into engine.Txn,
// in process, from `clients` goroutines: the stack with client, wire and
// server peeled off (disk, WAL, group commit and, when the workload has one,
// the follower stay on). It returns committed transactions per second and
// their median latency in microseconds.
func runPeel(w workload, tmp string, seed int64, warm, measure time.Duration) (perS, p50US float64, err error) {
	st, _, err := setup(w, tmp, nil, false)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: peel setup: %w", w.name, err)
	}
	defer os.RemoveAll(st.dir)
	defer st.close()

	drivers := make([]*driver, clients)
	for i := range drivers {
		drivers[i] = &driver{gen: newGenerator(w, seed, i), run: runLocal(st.eng)}
	}
	f := launch(drivers)
	time.Sleep(warm)
	from := time.Since(f.base)
	time.Sleep(measure)
	to := time.Since(f.base)
	f.halt()
	if err := f.firstErr(); err != nil {
		return 0, 0, fmt.Errorf("%s: peel: %w", w.name, err)
	}
	lat, _, _ := f.within(from, to)
	return float64(len(lat)) / (to - from).Seconds(), percentile(durationsUS(lat), 0.50), nil
}

// replayCodec re-runs the wire codec over captured (request, response)
// payload pairs, the way both ends of a connection do: decode and re-encode
// each request, decode and re-encode each response. It returns nanoseconds
// and heap allocations per frame. Nothing else runs while it measures.
func replayCodec(pairs [][2][]byte) (nsPerFrame, allocsPerFrame float64, err error) {
	if len(pairs) == 0 {
		return 0, 0, nil
	}
	var (
		req  wire.Request
		resp wire.Response
		buf  []byte
		ms   runtime.MemStats
	)
	pass := func() error {
		for _, p := range pairs {
			if err := wire.DecodeRequest(p[0], &req); err != nil {
				return err
			}
			if buf, err = wire.AppendRequest(buf[:0], &req); err != nil {
				return err
			}
			if err := wire.DecodeResponse(p[1], &resp); err != nil {
				return err
			}
			if buf, err = wire.AppendResponse(buf[:0], &resp); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil { // warm the buffers
		return 0, 0, fmt.Errorf("codec replay: %w", err)
	}
	const passes = 20
	runtime.ReadMemStats(&ms)
	mallocs, start := ms.Mallocs, time.Now()
	for i := 0; i < passes; i++ {
		if err := pass(); err != nil {
			return 0, 0, fmt.Errorf("codec replay: %w", err)
		}
	}
	took := time.Since(start)
	runtime.ReadMemStats(&ms)
	frames := float64(2 * passes * len(pairs))
	return float64(took) / frames, float64(ms.Mallocs-mallocs) / frames, nil
}
