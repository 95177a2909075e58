package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/calibrate"
	"atgpu/internal/experiments"
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/results"
	"atgpu/internal/sched"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// span is one timed call into a layer. Spans of one sweep point or job
// share Point; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Point  int    `json:"point"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, point int) int {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Point: point, Name: name, Start: now, End: -1})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark returns the number of spans so far; spans[mark:] are later ones.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTimes sums, per span name, the total and the self time (total
// minus the time the span's children cover) of spans[from:], in ms.
func (t *tracer) layerTimes(from int) (total, self map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total, self = map[string]float64{}, map[string]float64{}
	children := map[int]int64{}
	for _, s := range t.spans[from:] {
		children[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans[from:] {
		d := s.End - s.Start
		total[s.Name] += float64(d) / 1e6
		self[s.Name] += float64(d-children[s.ID]) / 1e6
	}
	return total, self
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// perLayerMetrics lists every metric a traced run prints. Layers a
// workload does not exercise print 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"sched.idle_frac", "ratio"},
	{"experiments.self_ms", "ms"},
	{"mem.device_new_ms", "ms"},
	{"mem.global_mb", "MB"},
	{"transfer.ms", "ms"},
	{"transfer.words", "count"},
	{"simgpu.launch_ms", "ms"},
	{"simgpu.launches", "count"},
	{"simgpu.warp_instrs", "count"},
	{"simgpu.lane_ops", "count"},
	{"simgpu.atomic_serialisations", "count"},
	{"simgpu.ns_per_warp_instr", "ns"},
	{"simgpu.memo_ratio", "ratio"},
	{"analyze.uniform_ms", "ms"},
	{"analyze.uniform_calls", "count"},
	{"analyze.certified_ratio", "ratio"},
	{"algorithms.reference_ms", "ms"},
	{"core.predict_ms", "ms"},
	{"calibrate.ms", "ms"},
	{"service.queue_wait_ms.p50", "ms"},
	{"service.queue_wait_ms.p99", "ms"},
	{"service.exec_ms.run", "ms"},
	{"service.exec_ms.analyze", "ms"},
	{"service.exec_ms.lint", "ms"},
	{"service.http_ms.p50", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"trace.replay_s", "s"},
	{"trace.direct_s", "s"},
}

// perLayer holds a traced run's per-layer values by metric name.
type perLayer map[string]float64

// spanMetrics are the span-derived metrics, in ms per op: a batch on the
// sweeps, the fixed replay set on daemon-mix.
var spanMetrics = []string{
	"experiments.self_ms", "core.predict_ms", "mem.device_new_ms", "transfer.ms",
	"simgpu.launch_ms", "launch_self_ms", "analyze.uniform_ms", "algorithms.reference_ms",
}

// sampleLayers turns spans[from:] into one op's layer times.
func sampleLayers(t *tracer, from int) perLayer {
	total, self := t.layerTimes(from)
	return perLayer{
		"experiments.self_ms": self["experiments.point"],
		"core.predict_ms":     total["core.predict"],
		"mem.device_new_ms":   total["mem.device_new"],
		// Runs replayed through alg.Run are timed as a whole; their time
		// outside launches is host-side transfer plus the Malloc,
		// kernel-build and EndRound calls around it.
		"transfer.ms":             total["transfer"] + self["algorithms.run"],
		"simgpu.launch_ms":        total["simgpu.launch"],
		"launch_self_ms":          self["simgpu.launch"],
		"analyze.uniform_ms":      total["analyze.uniform"],
		"algorithms.reference_ms": total["algorithms.reference"],
	}
}

// setLayers stores the per-name median of the ops' layer times.
func (p perLayer) setLayers(ops []perLayer) {
	for _, name := range spanMetrics {
		v := make([]float64, len(ops))
		for i, op := range ops {
			v[i] = op[name]
		}
		p[name] = median(v)
	}
}

// counters are exact work counts of replayed points. They do not depend
// on the host, so they repeat exactly across runs of one seed.
type counters struct {
	Launches      int64 `json:"launches"`
	MemoLaunches  int64 `json:"memo_launches"`
	WarpInstrs    int64 `json:"warp_instrs"`
	LaneOps       int64 `json:"lane_ops"`
	AtomicSerial  int64 `json:"atomic_serialisations"`
	TransferWords int64 `json:"transfer_words"`
	GlobalWords   int64 `json:"global_words"`
	ProverCalls   int64 `json:"prover_calls"`
	Certified     int64 `json:"certified"`
}

func (c *counters) add(o counters) {
	c.Launches += o.Launches
	c.MemoLaunches += o.MemoLaunches
	c.WarpInstrs += o.WarpInstrs
	c.LaneOps += o.LaneOps
	c.AtomicSerial += o.AtomicSerial
	c.TransferWords += o.TransferWords
	c.GlobalWords += o.GlobalWords
	c.ProverCalls += o.ProverCalls
	c.Certified += o.Certified
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fill prints every per-layer metric, deriving the counter-based ones
// from c.
func (p perLayer) fill(out *outcome, c counters) {
	p["mem.global_mb"] = float64(c.GlobalWords) * 8 / 1e6
	p["transfer.words"] = float64(c.TransferWords)
	p["simgpu.launches"] = float64(c.Launches)
	p["simgpu.warp_instrs"] = float64(c.WarpInstrs)
	p["simgpu.lane_ops"] = float64(c.LaneOps)
	p["simgpu.atomic_serialisations"] = float64(c.AtomicSerial)
	if c.WarpInstrs > 0 {
		p["simgpu.ns_per_warp_instr"] = p["launch_self_ms"] * 1e6 / float64(c.WarpInstrs)
	}
	p["simgpu.memo_ratio"] = ratio(c.MemoLaunches, c.Launches)
	p["analyze.uniform_calls"] = float64(c.ProverCalls)
	p["analyze.certified_ratio"] = ratio(c.Certified, c.ProverCalls)
	for _, m := range perLayerMetrics {
		out.set(m.name, p[m.name], m.unit)
	}
	b, _ := json.Marshal(c) // counters holds only integers
	out.note("exact counters per op: %s", b)
	if direct := p["trace.direct_s"]; direct > 0 {
		out.note("traced replay %.4fs vs direct %.4fs per op (%+.1f%%)",
			p["trace.replay_s"], direct, 100*(p["trace.replay_s"]/direct-1))
	}
}

// timeCalibration times experiments.Calibrate setupReps times as
// "calibrate" spans and returns the median in ms, the link and the
// calibration.
func timeCalibration(t *tracer, cfg experiments.Config) (float64, *transfer.Link, calibrate.Result, error) {
	var ms []float64
	var link *transfer.Link
	var cal calibrate.Result
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s := t.begin("calibrate", 0, 0)
		l, c, err := experiments.Calibrate(cfg)
		t.finish(s)
		if err != nil {
			return 0, nil, cal, err
		}
		link, cal = l, c
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), link, cal, nil
}

// replayer re-drives sweep points through the layers' public functions
// exactly as the runner does, with a span around each call.
type replayer struct {
	r    *experiments.Runner
	link *transfer.Link
	tr   *tracer
}

// pointRun is one replayed point's span context.
type pointRun struct {
	tr     *tracer
	pid    int
	root   int
	launch int // the open simgpu.launch span, parent of prover spans
}

func (p *pointRun) span(name string, fn func() error) error {
	s := p.tr.begin(name, p.root, p.pid)
	err := fn()
	p.tr.finish(s)
	return err
}

// point replays one point of kind ("sweep", "run" or "analyze") and
// returns its canonical record, stamped as the runner stamps it.
func (rp *replayer) point(kind, workload string, n, idx, pid int) (results.Record, counters, error) {
	var c counters
	cfg := rp.r.Config()
	b := cfg.Device.WarpWidth
	p := &pointRun{tr: rp.tr, pid: pid}
	p.root = rp.tr.begin("experiments.point", 0, pid)
	defer rp.tr.finish(p.root)

	var pt experiments.WorkloadPoint
	err := p.span("core.predict", func() (err error) {
		pt, err = rp.r.PredictPoint(workload, n)
		return err
	})
	if err != nil || kind == "analyze" {
		return rp.r.Record(kind, workload, pt), c, err
	}

	devCfg := cfg.Device
	devCfg.GlobalWords = footprint(workload, n, b) + 4*b // plus the runner's alignment slack
	c.GlobalWords = int64(devCfg.GlobalWords)
	var dev *simgpu.Device
	if err := p.span("mem.device_new", func() (err error) {
		dev, err = simgpu.New(devCfg)
		return err
	}); err != nil {
		return results.Record{}, c, err
	}
	dev.SetUniformProver(func(prog *kernel.Program, dc simgpu.Config, blocks int) bool {
		s := rp.tr.begin("analyze.uniform", p.launch, pid)
		ok := analyze.UniformProver(prog, dc, blocks)
		rp.tr.finish(s)
		c.ProverCalls++
		if ok {
			c.Certified++
		}
		return ok
	})
	eng, err := transfer.NewEngine(rp.link, cfg.Scheme)
	if err != nil {
		return results.Record{}, c, err
	}
	h, err := simgpu.NewHost(dev, eng, cfg.SyncCost)
	if err != nil {
		return results.Record{}, c, err
	}
	if err := p.run(h, workload, n, inputRNG(cfg.Seed, workload, n, idx)); err != nil {
		return results.Record{}, c, fmt.Errorf("%s n=%d: %w", workload, n, err)
	}

	rep := h.Report()
	ks := h.KernelStats()
	c.Launches = int64(h.Launches())
	c.MemoLaunches = dev.MemoSkips()
	c.WarpInstrs = ks.InstructionsIssued
	c.LaneOps = ks.LaneOps
	c.AtomicSerial = ks.AtomicSerialisations
	c.TransferWords = int64(rep.Transfers.TotalWords())
	pt.TotalTime = rep.Total.Seconds()
	pt.KernelTime = rep.Kernel.Seconds()
	pt.TransferTime = rep.Transfer.Seconds()
	pt.SyncTime = rep.Sync.Seconds()
	pt.DeltaObserved = rep.TransferFraction()
	pt.Transfers = rep.Transfers
	pt.Resilience = rep.Resilience
	return rp.r.Record(kind, workload, pt), c, nil
}

// footprint is the device words a point's runner allocates, before slack.
func footprint(workload string, n, b int) int {
	switch workload {
	case "vecadd":
		return algorithms.VecAdd{N: n}.GlobalWords()
	case "matmul":
		return algorithms.MatMul{N: n}.GlobalWords()
	case "reduce":
		return algorithms.Reduce{N: n}.GlobalWords(b)
	case "histogram", "histogram-priv":
		return algorithms.Histogram{N: n, Bins: experiments.HistogramSweepBins}.GlobalWords()
	case "compact":
		return algorithms.Compact{N: n}.GlobalWords()
	case "topk":
		return algorithms.TopK{N: n, K: experiments.TopKSweepK}.GlobalWords()
	case "montecarlo":
		return algorithms.MonteCarlo{N: n, Trials: experiments.MonteCarloTrials}.GlobalWords()
	}
	return 0
}

// run generates the point's inputs as the runner does, executes it, and
// runs the runner's reference check where the runner has one.
func (p *pointRun) run(h *simgpu.Host, workload string, n int, rng *rand.Rand) error {
	b := h.Device().Config().WarpWidth
	check := func(what string, ok bool) error {
		if !ok {
			return fmt.Errorf("%w: %s", algorithms.ErrVerifyFail, what)
		}
		return nil
	}
	switch workload {
	case "vecadd":
		alg := algorithms.VecAdd{N: n}
		x, y := randWords(rng, n), randWords(rng, n)
		return p.driveABC(h, n, alg.Kernel, alg.Blocks(b), x, y)
	case "matmul":
		alg := algorithms.MatMul{N: n}
		x, y := randWords(rng, n*n), randWords(rng, n*n)
		return p.driveABC(h, n*n, alg.Kernel, alg.Blocks(b), x, y)
	case "reduce":
		in := randBits(rng, n)
		var got mem.Word
		if err := p.hooked(h, func() (err error) {
			got, err = algorithms.Reduce{N: n}.Run(h, in)
			return err
		}); err != nil {
			return err
		}
		return p.span("algorithms.reference", func() error {
			return check("reduce sum", got == algorithms.ReduceReference(in))
		})
	case "histogram", "histogram-priv":
		bins := experiments.HistogramSweepBins
		alg := algorithms.Histogram{N: n, Bins: bins, Privatized: workload == "histogram-priv"}
		in := randNonNeg(rng, n)
		var got []mem.Word
		if err := p.hooked(h, func() (err error) {
			got, err = alg.Run(h, in)
			return err
		}); err != nil {
			return err
		}
		return p.span("algorithms.reference", func() error {
			want, err := algorithms.HistogramReference(in, bins)
			if err != nil {
				return err
			}
			return check("histogram bins", slices.Equal(got, want))
		})
	case "compact":
		in := randWords(rng, n)
		for i := 0; i < n; i += 3 {
			in[i] = 0
		}
		var got []mem.Word
		if err := p.hooked(h, func() (err error) {
			got, err = algorithms.Compact{N: n}.Run(h, in)
			return err
		}); err != nil {
			return err
		}
		return p.span("algorithms.reference", func() error {
			return check("compact survivors", equalMultiset(got, algorithms.CompactReference(in)))
		})
	case "topk":
		k := experiments.TopKSweepK
		in := randWords(rng, n)
		var got []mem.Word
		if err := p.hooked(h, func() (err error) {
			got, err = algorithms.TopK{N: n, K: k}.Run(h, in)
			return err
		}); err != nil {
			return err
		}
		return p.span("algorithms.reference", func() error {
			want, err := algorithms.TopKReference(in, k)
			if err != nil {
				return err
			}
			return check("top-k slots", equalMultiset(got, want))
		})
	case "montecarlo":
		alg := algorithms.MonteCarlo{N: n, Trials: experiments.MonteCarloTrials}
		var got mem.Word
		if err := p.hooked(h, func() (err error) {
			got, err = alg.Run(h)
			return err
		}); err != nil {
			return err
		}
		return p.span("algorithms.reference", func() error {
			want, err := alg.MonteCarloReference()
			if err != nil {
				return err
			}
			return check("monte carlo hits", got == want)
		})
	}
	return fmt.Errorf("no replay for workload %q", workload)
}

// driveABC makes the host calls of VecAdd.Run and MatMul.Run — three
// equal buffers, two transfers in, one launch, one transfer out — with a
// span around each transfer and the launch.
func (p *pointRun) driveABC(h *simgpu.Host, words int,
	build func(b, baseA, baseB, baseC int) (*kernel.Program, error),
	blocks int, x, y []mem.Word) error {
	var base [3]int
	for i := range base {
		var err error
		if base[i], err = h.Malloc(words); err != nil {
			return err
		}
	}
	prog, err := build(h.Device().Config().WarpWidth, base[0], base[1], base[2])
	if err != nil {
		return err
	}
	if err := p.span("transfer", func() error { return h.TransferIn(base[0], x) }); err != nil {
		return err
	}
	if err := p.span("transfer", func() error { return h.TransferIn(base[1], y) }); err != nil {
		return err
	}
	p.launch = p.tr.begin("simgpu.launch", p.root, p.pid)
	_, err = h.Launch(prog, blocks)
	p.tr.finish(p.launch)
	if err != nil {
		return err
	}
	if err := p.span("transfer", func() error {
		_, err := h.TransferOut(base[2], words)
		return err
	}); err != nil {
		return err
	}
	h.EndRound()
	return nil
}

// hooked runs an algorithm's own Run inside an algorithms.run span,
// timing each of its launches through the host's pre-launch gate and
// launch observer.
func (p *pointRun) hooked(h *simgpu.Host, run func() error) error {
	s := p.tr.begin("algorithms.run", p.root, p.pid)
	h.SetPreLaunch(func(*kernel.Program, int) error {
		p.launch = p.tr.begin("simgpu.launch", s, p.pid)
		return nil
	})
	h.SetLaunchObserver(func(*kernel.Program, int, simgpu.KernelResult) { p.tr.finish(p.launch) })
	err := run()
	p.tr.finish(s)
	return err
}

// derivedSeed and inputRNG reproduce the runner's per-point input seeding
// (FNV-1a over base, domain, workload, n and point index), so replayed
// points see the runner's exact inputs.
func derivedSeed(base int64, domain, workload string, n, idx int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	h.Write([]byte(domain))
	h.Write([]byte{0})
	h.Write([]byte(workload))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(idx))
	h.Write(buf[:])
	return int64(h.Sum64() & (1<<63 - 1))
}

func inputRNG(seed int64, workload string, n, idx int) *rand.Rand {
	return rand.New(rand.NewSource(derivedSeed(seed, "input", workload, n, idx)))
}

// The runner's input distributions.
func randWords(rng *rand.Rand, n int) []mem.Word {
	w := make([]mem.Word, n)
	for i := range w {
		w[i] = mem.Word(rng.Intn(2001) - 1000)
	}
	return w
}

func randBits(rng *rand.Rand, n int) []mem.Word {
	w := make([]mem.Word, n)
	for i := range w {
		w[i] = mem.Word(rng.Intn(2))
	}
	return w
}

func randNonNeg(rng *rand.Rand, n int) []mem.Word {
	w := make([]mem.Word, n)
	for i := range w {
		w[i] = mem.Word(rng.Intn(2001))
	}
	return w
}

func equalMultiset(a, b []mem.Word) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[mem.Word]int, len(a))
	for _, v := range a {
		counts[v]++
	}
	for _, v := range b {
		if counts[v] == 0 {
			return false
		}
		counts[v]--
	}
	return true
}

// replayBatch replays every sweep of the batch, each over sweepWorkers
// goroutines through the runner's own scheduler, and returns the records.
func (rp *replayer) replayBatch(batch []sweep, firstPID int) ([]*experiments.WorkloadData, counters, error) {
	var total counters
	var data []*experiments.WorkloadData
	pid := firstPID
	for _, sw := range batch {
		sizes, err := rp.r.Config().SweepSizes(sw.name)
		if err != nil {
			return nil, total, err
		}
		d := &experiments.WorkloadData{Workload: sw.name, Records: make([]results.Record, len(sizes))}
		cs := make([]counters, len(sizes))
		errs := sched.Run(context.Background(), len(sizes), sweepWorkers, func(i int) (err error) {
			d.Records[i], cs[i], err = rp.point("sweep", sw.name, sizes[i], i, pid+i)
			return err
		})
		pid += len(sizes)
		for i := range sizes {
			if errs[i] != nil {
				return nil, total, errs[i]
			}
			total.add(cs[i])
		}
		data = append(data, d)
	}
	return data, total, nil
}

// traceSweeps is the traced run of a sweep workload: each op is one
// runner batch, timed directly, followed by its traced replay.
func traceSweeps(o options, out *outcome, r *experiments.Runner, clock *pointClock,
	batch []sweep, check func([]*experiments.WorkloadData) error) (*outcome, error) {
	tr := newTracer()
	p := perLayer{}
	calMs, link, _, err := timeCalibration(tr, r.Config())
	if err != nil {
		return nil, err
	}
	p["calibrate.ms"] = calMs
	rp := &replayer{r: r, link: link, tr: tr}

	if _, err := runBatch(r, clock, batch); err != nil { // warm-up
		return nil, err
	}
	var samples []perLayer
	var idle, direct, replay []float64
	var first counters
	pid := 1
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		out.Attempted++
		res, err := runBatch(r, clock, batch)
		if err == nil {
			err = check(res.data)
		}
		if err != nil {
			out.fail("batch %d: %v", i, err)
			continue
		}
		busy := 0.0
		for _, ms := range res.points {
			busy += ms / 1e3
		}
		idle = append(idle, 1-busy/(sweepWorkers*res.wall.Seconds()))
		direct = append(direct, res.wall.Seconds())

		mark := tr.mark()
		t0 := time.Now()
		data, c, err := rp.replayBatch(batch, pid)
		replay = append(replay, time.Since(t0).Seconds())
		pid += len(res.points)
		if err != nil {
			out.fail("replay %d: %v", i, err)
			continue
		}
		digest, err := recordDigest(data)
		if err != nil {
			return nil, err
		}
		if digest != res.digest {
			out.fail("replay %d: record digest %s differs from the runner's %s", i, digest, res.digest)
			continue
		}
		if len(samples) == 0 {
			first = c
			out.note("record digest (sha256 of canonical results.Record JSON, seed %d): %s", o.seed, digest)
		} else if c != first {
			out.fail("replay %d: exact counters changed between batches", i)
			continue
		}
		samples = append(samples, sampleLayers(tr, mark))
	}
	p["sched.idle_frac"] = median(idle)
	p.setLayers(samples)
	p["trace.replay_s"], p["trace.direct_s"] = median(replay), median(direct)
	p.fill(out, first)
	out.note("samples: batches=%d spans=%d -> %s", len(samples), tr.mark(), o.spans)
	return out, tr.write(o.spans)
}
