package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The sizing host does not run at one speed. Idle for a few minutes and it
// runs every workload 50-70% faster for the next two; under sustained load
// CPU, fsync and wake-ups all slow down together by up to 2x; and now and
// then the hypervisor throttles it outright (host.steal_frac). A time measured in
// one 20 s run therefore says as much about the minute it ran in as about the
// code. The reference makes that visible and lets it be divided out: a fixed
// operation built from the same primitives a transaction is built from, and
// from nothing of this repository, run closed-loop for refBurst right before
// and right after every window's clients run.
//
// One reference operation is refRoundTrips loopback TCP round trips of
// refBytes to an echo goroutine, then a refRecord-byte append and fsync to a
// file of its own in the window's data directory. It never runs while the
// clients do: paced at 50/s during a window, its flushes alone doubled
// hot_occ's p99.
const (
	refRoundTrips = 5
	refBytes      = 64
	refRecord     = 272
	refBurst      = 300 * time.Millisecond
)

type reference struct {
	ln       net.Listener
	conn     net.Conn
	file     *os.File
	echoDone chan struct{}
}

// openReference opens the reference's loopback connection and its file.
func openReference(dir string) (*reference, error) {
	r := &reference{echoDone: make(chan struct{})}
	var err error
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { // echo: whatever arrives goes straight back
		defer close(r.echoDone)
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // ends when the reference closes its side
	}()
	if r.conn, err = net.Dial("tcp", r.ln.Addr().String()); err == nil {
		r.file, err = os.Create(filepath.Join(dir, "reference.dat"))
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// burst runs reference operations back to back for d and returns their median
// duration in microseconds.
func (r *reference) burst(d time.Duration) (float64, error) {
	msg, record := make([]byte, refBytes), make([]byte, refRecord)
	var us []float64
	for begin := time.Now(); time.Since(begin) < d; {
		start := time.Now()
		for i := 0; i < refRoundTrips; i++ {
			if _, err := r.conn.Write(msg); err != nil {
				return 0, fmt.Errorf("reference operation: %w", err)
			}
			if _, err := io.ReadFull(r.conn, msg); err != nil {
				return 0, fmt.Errorf("reference operation: %w", err)
			}
		}
		if _, err := r.file.Write(record); err != nil {
			return 0, fmt.Errorf("reference operation: %w", err)
		}
		if err := r.file.Sync(); err != nil {
			return 0, fmt.Errorf("reference operation: %w", err)
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	sort.Float64s(us)
	return percentile(us, 0.50), nil
}

// close releases the connection, the listener and the file, and waits for
// the echo goroutine.
func (r *reference) close() {
	if r.conn != nil {
		r.conn.Close()
	}
	r.ln.Close()
	<-r.echoDone
	if r.file != nil {
		r.file.Close()
	}
}
