package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The reference arm: a fixed CPU-and-memory workload that belongs to the
// benchmark, not to the program, so its time moves only with the speed of
// the host. On a shared 2-vCPU VM that speed drifts by a third over
// minutes with no steal time showing, which swamps any change worth
// gating. Every host time the end-to-end metrics report is scaled by
// refNominal / (the run's median reference time): seconds on a host where
// the reference takes refNominal. The raw times are printed beside the
// scaled ones.
//
// The samples run in the program's process, before the load starts and
// after it ends and its peak RSS has been read, with the program idle
// (the daemon shut down). The timed repetitions allocate nothing, so no
// garbage collection runs during them and the program's live heap cannot
// set how often one does.

// refNominal is the reference time the scaled metrics are expressed at,
// about the reference's median on a 2-vCPU VM.
const refNominal = 90 * time.Millisecond

// refSize is the work of one reference repetition.
const refSize = 1 << 19

// refWorkers matches the workloads' two workers.
const refWorkers = 2

// refReps is the reference repetitions timed before a workload's load
// starts and again after it ends. Timing it between batches instead would
// keep its buffers (two 4 MiB key slices and their maps) live during the
// load, in the workload's heap and peak RSS.
const refReps = 12

// refBuf is one reference goroutine's working set, built once per
// sample and reused by every repetition of it.
type refBuf struct {
	rng  *rand.Rand
	keys []int64
	m    map[int64]int
}

func newRefBuf() *refBuf {
	return &refBuf{
		rng:  rand.New(rand.NewSource(1)),
		keys: make([]int64, refSize),
		m:    make(map[int64]int, refSize/4),
	}
}

// run does the reference work once without allocating: sorting fresh
// pseudo-random keys (branchy, cache-missing integer code) and building
// and probing a map of them (hashing), the mix the simulator's
// interpreter and the service spend their time on.
func (b *refBuf) run() {
	b.rng.Seed(1)
	for i := range b.keys {
		b.keys[i] = b.rng.Int63()
	}
	slices.Sort(b.keys)
	clear(b.m)
	for i, k := range b.keys[:refSize/4] {
		b.m[k] = i
	}
	hits := 0
	for _, k := range b.keys {
		if _, ok := b.m[k]; ok {
			hits++
		}
	}
	refSink.Add(int64(hits))
}

// refSink keeps the reference's result live.
var refSink atomic.Int64

// hostRef collects reference samples over a run.
type hostRef struct {
	samples []float64 // seconds
}

// sample times the reference n times, each run on refWorkers goroutines
// at once so that it loads the host as the workloads do. An untimed first
// repetition warms the buffers, which are garbage once sample returns.
func (h *hostRef) sample(n int) {
	runtime.GC() // the workload's garbage is not the reference's to collect
	bufs := make([]*refBuf, refWorkers)
	for w := range bufs {
		bufs[w] = newRefBuf()
	}
	for i := -1; i < n; i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, b := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.run()
			}()
		}
		wg.Wait()
		if i >= 0 {
			h.samples = append(h.samples, time.Since(t0).Seconds())
		}
	}
}

// scale is the factor that turns this run's host seconds into
// reference-speed seconds.
func (h *hostRef) scale() float64 {
	return refNominal.Seconds() / median(h.samples)
}
