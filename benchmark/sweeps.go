package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"atgpu/internal/experiments"
	"atgpu/internal/plot"
)

// sweep is one Runner.Run* call of a batch.
type sweep struct {
	name string
	run  func(*experiments.Runner) (*experiments.WorkloadData, error)
}

// paperBatch regenerates the data behind Figs 3–6, as atgpu-figures does.
var paperBatch = []sweep{
	{"vecadd", (*experiments.Runner).RunVecAdd},
	{"reduce", (*experiments.Runner).RunReduce},
	{"matmul", (*experiments.Runner).RunMatMul},
}

// atomicsBatch runs every atomic workload at its default ladder.
var atomicsBatch = []sweep{
	{"histogram", func(r *experiments.Runner) (*experiments.WorkloadData, error) { return r.RunHistogram(false) }},
	{"histogram-priv", func(r *experiments.Runner) (*experiments.WorkloadData, error) { return r.RunHistogram(true) }},
	{"compact", (*experiments.Runner).RunCompact},
	{"topk", (*experiments.Runner).RunTopK},
	{"montecarlo", (*experiments.Runner).RunMonteCarlo},
}

// sweepWorkers is one worker per core of the 2-vCPU host the baselines
// in README.md were measured on.
const sweepWorkers = 2

func runPaperSweep(o options) (*outcome, error) {
	return runSweeps(o, paperBatch, func(data []*experiments.WorkloadData) error {
		return checkFigureCSVs(o.results, data)
	})
}

func runAtomicsSweep(o options) (*outcome, error) {
	return runSweeps(o, atomicsBatch, func(data []*experiments.WorkloadData) error {
		for _, d := range data {
			if n := d.FailedPoints(); n > 0 {
				return fmt.Errorf("%s: %d failed points", d.Workload, n)
			}
		}
		return nil
	})
}

// pointClock times each scheduled sweep point; it is the runner's
// Config.SchedObserver. Sweeps of a batch run one after another, so a
// point index is live at most once at a time.
type pointClock struct {
	mu    sync.Mutex
	start map[int]time.Time
	ms    map[int]float64 // point index -> milliseconds
}

func newPointClock() *pointClock {
	return &pointClock{start: map[int]time.Time{}, ms: map[int]float64{}}
}

func (c *pointClock) JobStart(index, _ int) {
	c.mu.Lock()
	c.start[index] = time.Now()
	c.mu.Unlock()
}

func (c *pointClock) JobDone(index, worker int, _ error) {
	if worker < 0 {
		return // cancelled before dispatch
	}
	now := time.Now()
	c.mu.Lock()
	c.ms[index] = float64(now.Sub(c.start[index])) / 1e6
	c.mu.Unlock()
}

// take returns one sweep's point times in point order and clears them.
func (c *pointClock) take(points int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, points)
	for i := range out {
		out[i] = c.ms[i]
	}
	clear(c.ms)
	return out
}

// newRunner calibrates and builds the GTX650 runner every sweep workload
// uses: pageable transfers, σ = 50 µs, default ladders, two workers.
func newRunner(seed int64, clock *pointClock) (*experiments.Runner, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = sweepWorkers
	cfg.SchedObserver = clock
	link, cal, err := experiments.Calibrate(cfg)
	if err != nil {
		return nil, err
	}
	return experiments.NewRunnerCalibrated(cfg, link, cal)
}

// batchResult is one timed batch.
type batchResult struct {
	wall   time.Duration
	alloc  uint64
	points []float64 // ms per point, in sweep and point order
	data   []*experiments.WorkloadData
	digest string
}

// runBatch runs every sweep of the batch in order and digests the records.
func runBatch(r *experiments.Runner, clock *pointClock, batch []sweep) (batchResult, error) {
	var res batchResult
	a0 := totalAlloc()
	t0 := time.Now()
	for _, sw := range batch {
		d, err := sw.run(r)
		if err != nil {
			return res, fmt.Errorf("%s: %w", sw.name, err)
		}
		res.data = append(res.data, d)
		res.points = append(res.points, clock.take(len(d.Points))...)
	}
	res.wall = time.Since(t0)
	res.alloc = totalAlloc() - a0
	digest, err := recordDigest(res.data)
	res.digest = digest
	return res, err
}

// recordDigest is the SHA-256 of the batch's canonical records, one JSON
// document per line in sweep and point order.
func recordDigest(data []*experiments.WorkloadData) (string, error) {
	h := sha256.New()
	for _, d := range data {
		for _, rec := range d.Records {
			b, err := json.Marshal(rec)
			if err != nil {
				return "", err
			}
			h.Write(b)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// pointMedians returns each point's median time over the batches, so a
// GC pause or host hiccup in one batch does not move the percentiles
// taken across the ladder.
func pointMedians(batches [][]float64) []float64 {
	med := make([]float64, len(batches[0]))
	v := make([]float64, len(batches))
	for k := range med {
		for b := range batches {
			v[b] = batches[b][k]
		}
		med[k] = median(v)
	}
	return med
}

// checkFigureCSVs regenerates every Fig 3–6 CSV from the batch and
// requires it to be byte-identical to the committed copy under dir, and
// every committed fig*.csv to have been regenerated.
func checkFigureCSVs(dir string, data []*experiments.WorkloadData) error {
	seen := map[string]bool{}
	for _, d := range data {
		for _, f := range experiments.Figures(d) {
			var buf bytes.Buffer
			if err := plot.WriteCSV(&buf, f.XLabel, f.Series...); err != nil {
				return err
			}
			want, err := os.ReadFile(filepath.Join(dir, f.ID+".csv"))
			if err != nil {
				return fmt.Errorf("figure CSV: %w", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				return fmt.Errorf("figure CSV %s.csv differs from %s", f.ID, dir)
			}
			seen[f.ID+".csv"] = true
		}
	}
	committed, err := filepath.Glob(filepath.Join(dir, "fig*.csv"))
	if err != nil {
		return err
	}
	if len(committed) == 0 {
		return fmt.Errorf("figure CSV: none committed under %s", dir)
	}
	for _, p := range committed {
		if !seen[filepath.Base(p)] {
			return fmt.Errorf("figure CSV %s was not regenerated", p)
		}
	}
	return nil
}

// runSweeps drives a sweep workload: set-up, one discarded warm-up batch,
// then batches until the run's time is spent. check is the workload's
// correctness gate, applied to every batch.
func runSweeps(o options, batch []sweep, check func([]*experiments.WorkloadData) error) (*outcome, error) {
	out := newOutcome(o)
	clock := newPointClock()
	setup, r, err := timeSetup(func() (*experiments.Runner, error) { return newRunner(o.seed, clock) }, nil)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceSweeps(o, out, r, clock, batch, check)
	}

	var e2e endToEnd
	e2e.setup = setup
	e2e.ref.sample(refReps)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var digest string
	var totalAllocB uint64
	var pointMs [][]float64 // per batch
	start := time.Now()
	for i := 0; i == 0 || i == 1 || time.Since(start) < o.seconds; i++ {
		if i == 1 {
			start = time.Now() // batch 0 was the warm-up
		}
		res, err := runBatch(r, clock, batch)
		out.Attempted++
		if err == nil {
			err = check(res.data)
		}
		if err == nil && digest != "" && res.digest != digest {
			err = fmt.Errorf("record digest changed between batches: %s then %s", digest, res.digest)
		}
		if err != nil {
			out.fail("batch %d: %v", i, err)
			continue
		}
		digest = res.digest
		if i == 0 {
			out.Attempted-- // the warm-up is not an op of the run
			continue
		}
		e2e.batches = append(e2e.batches, res.wall.Seconds())
		pointMs = append(pointMs, res.points)
		totalAllocB += res.alloc
	}
	if e2e.peakRSS, err = peakRSSMB(); err != nil {
		return nil, err
	}
	e2e.ref.sample(refReps)
	if n := len(e2e.batches); n > 0 {
		// Points per second of the median batch: a mean over batches would
		// follow the slowest one.
		e2e.jobsPerSec = float64(len(pointMs[0])) / median(e2e.batches)
		e2e.allocMB = float64(totalAllocB) / float64(n) / 1e6
		e2e.jobs = pointMedians(pointMs)
	}
	out.note("record digest (sha256 of canonical results.Record JSON, seed %d): %s", o.seed, digest)
	out.note("job percentiles over %d points, each the median of its %d batches", len(e2e.jobs), len(e2e.batches))
	e2e.fill(out)
	return out, nil
}
