package atgpu

import (
	"io"
	"sync/atomic"
	"time"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/core"
	"atgpu/internal/experiments"
	"atgpu/internal/kernel"
	"atgpu/internal/models"
	"atgpu/internal/obs"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// Word is the model's machine word (64-bit signed integer).
type Word = int64

// LintMode selects the static-analysis pre-flight applied to every kernel
// launch (see internal/analyze).
type LintMode = analyze.Mode

const (
	// LintOff disables the pre-flight; launches are untouched.
	LintOff = analyze.ModeOff
	// LintWarn analyses every launched kernel and reports findings to
	// LintWriter, but never refuses a launch.
	LintWarn = analyze.ModeWarn
	// LintError additionally refuses launches whose kernels carry
	// error-severity findings (races, divergent barriers, definite traps),
	// wrapping ErrLintRefused.
	LintError = analyze.ModeError
)

// ErrLintRefused is wrapped by launch errors when LintError pre-flight finds
// an error-severity problem in a kernel about to launch.
var ErrLintRefused = analyze.ErrRefused

// ParseLintMode reads a LintMode from its flag spelling ("off"/"", "warn",
// "error").
func ParseLintMode(s string) (LintMode, error) { return analyze.ParseMode(s) }

// Options configures a System.
type Options struct {
	// Device selects the simulated GPU; DefaultOptions uses the GTX650
	// preset of the paper's testbed.
	Device simgpu.Config
	// Scheme selects the host↔device transfer technique.
	Scheme transfer.Scheme
	// SyncCost is σ, the fixed synchronisation cost per round.
	SyncCost time.Duration

	// Workers is the goroutine count experiment sweeps built from these
	// options dispatch their points to (see ExperimentConfig). 0 uses
	// runtime.GOMAXPROCS(0); 1 is sequential. Sweep output is identical
	// for any worker count.
	Workers int

	// Chunks is the chunk (or matmul band) count the pipelined runs and
	// sweeps split their inputs into. 0 uses the experiments default (4).
	Chunks int

	// FaultRate enables deterministic fault injection when > 0: the
	// probability, in [0,1], of each transfer or launch drawing a fault.
	// At 0 no injector is attached and behaviour is identical to a build
	// without the fault machinery.
	FaultRate float64
	// FaultSeed drives the injector; the same seed replays the same
	// faults, retries and simulated timeline.
	FaultSeed int64
	// MaxRetries overrides the transfer retry budget when > 0.
	MaxRetries int
	// Watchdog overrides the kernel watchdog timeout when > 0.
	Watchdog time.Duration

	// Trace records every run onto a unified Perfetto timeline: host
	// resource occupancy, per-stream spans, embedded device block spans
	// and transfer/retry/fault events, all in simulated time. Off by
	// default; the uninstrumented path stays allocation-free.
	Trace bool
	// Metrics collects deterministic counters/gauges/histograms across
	// all layers, exposable as JSON or Prometheus text.
	Metrics bool
	// TraceMaxEvents caps the trace recorder (0 = obs.DefaultMaxEvents).
	TraceMaxEvents int

	// Lint arms a static-analysis pre-flight on every kernel launch:
	// LintWarn reports findings, LintError also refuses launches with
	// error-severity findings. Off by default; the unlinted path is
	// untouched.
	Lint LintMode
	// LintWriter receives the textual lint report for kernels with
	// findings (nil discards it; refusal errors carry the worst finding
	// regardless).
	LintWriter io.Writer
}

// ObsOptions translates the observability selection for internal layers.
func (o Options) ObsOptions() obs.Options {
	return obs.Options{Trace: o.Trace, Metrics: o.Metrics, TraceMaxEvents: o.TraceMaxEvents}
}

// DefaultOptions matches the paper's evaluation setup: GTX650-like device,
// pageable transfers (the cudaMemcpy default, which reproduces the paper's
// ~84% vecadd transfer share), σ = 50 µs.
func DefaultOptions() Options {
	return Options{
		Device:   simgpu.GTX650(),
		Scheme:   transfer.Pageable,
		SyncCost: 50 * time.Microsecond,
	}
}

// ExperimentConfig translates the options into a configuration for the
// experiments runner (NewSystem, cmd/atgpu `sweep`, cmd/atgpu-figures),
// threading through the device, transfer scheme, σ, worker count and fault
// wiring.
func (o Options) ExperimentConfig() experiments.Config {
	return experiments.Config{
		Device:     o.Device,
		Scheme:     o.Scheme,
		SyncCost:   o.SyncCost,
		Seed:       1,
		Workers:    o.Workers,
		Chunks:     o.Chunks,
		FaultRate:  o.FaultRate,
		FaultSeed:  o.FaultSeed,
		MaxRetries: o.MaxRetries,
		Watchdog:   o.Watchdog,
		Obs:        o.ObsOptions(),
		Lint:       o.Lint,
		LintWriter: o.LintWriter,
	}
}

// System bundles a simulated device, a transfer link and calibrated cost
// parameters — everything needed to both predict (on the abstract model)
// and observe (on the simulator) an algorithm's running time. It runs on
// the experiments runner the sweeps use, so a single run and a sweep point
// build the same hosts and price the same analyses.
type System struct {
	opts Options
	r    *experiments.Runner
	// hostSeq numbers the hosts built, giving each run a fresh
	// deterministically seeded fault injector. Atomic so a System shared
	// across goroutines stays race-free (though the sequence each run
	// draws then depends on scheduling; single-goroutine use replays
	// exactly).
	hostSeq atomic.Int64
}

// NewSystem validates the options and calibrates cost parameters for the
// device, which takes a few milliseconds of simulation. Calibration always
// runs fault-free: cost parameters describe the healthy machine.
func NewSystem(opts Options) (*System, error) {
	r, err := experiments.NewRunner(opts.ExperimentConfig())
	if err != nil {
		return nil, err
	}
	return &System{opts: opts, r: r}, nil
}

// CostParams returns the calibrated γ, λ, σ, α, β, k', H.
func (s *System) CostParams() core.CostParams { return s.r.CostParams() }

// Options returns the system options.
func (s *System) Options() Options { return s.opts }

// ModelParams returns the perfect-GPU machine instance for a launch of
// blocks thread blocks on this system's device geometry.
func (s *System) ModelParams(blocks int) core.Params { return s.r.ModelParams(blocks) }

// Prediction is the model-side account of an algorithm: the per-round
// analysis plus both cost-function evaluations and the SWGPU baseline.
type Prediction struct {
	// Analysis is the per-round ATGPU account.
	Analysis *core.Analysis
	// PerfectCost is Expression (1) in seconds.
	PerfectCost float64
	// GPUCost is Expression (2) in seconds.
	GPUCost float64
	// SWGPUCost is the GPU-cost with transfer removed (the baseline).
	SWGPUCost float64
	// TransferFraction is Δ_T, the predicted transfer share of GPUCost.
	TransferFraction float64
}

// AnalyzeVecAdd predicts vector addition of length n (paper §IV-A).
func (s *System) AnalyzeVecAdd(n int) (*Prediction, error) { return s.Predict("vecadd", n) }

// AnalyzeReduce predicts reduction of length n (paper §IV-B).
func (s *System) AnalyzeReduce(n int) (*Prediction, error) { return s.Predict("reduce", n) }

// AnalyzeMatMul predicts n×n matrix multiplication (paper §IV-C).
func (s *System) AnalyzeMatMul(n int) (*Prediction, error) { return s.Predict("matmul", n) }

// Predict prices a registered workload (see experiments.WorkloadNames) at
// size n, with the launch geometry its run uses.
func (s *System) Predict(workload string, n int) (*Prediction, error) {
	w, err := experiments.Lookup(workload)
	if err != nil {
		return nil, err
	}
	a, err := w.Analyze(n, s.opts.Device.WarpWidth, s.ModelParams)
	if err != nil {
		return nil, err
	}
	return s.Analyze(a)
}

// Analyze prices a caller-supplied analysis, for algorithms designed
// directly against the model.
func (s *System) Analyze(a *core.Analysis) (*Prediction, error) {
	perfect, err := core.PerfectCost(a, s.r.CostParams())
	if err != nil {
		return nil, err
	}
	pt, err := s.r.Predict(a)
	if err != nil {
		return nil, err
	}
	return &Prediction{
		Analysis:         a,
		PerfectCost:      perfect,
		GPUCost:          pt.ATGPUCost,
		SWGPUCost:        pt.SWGPUCost,
		TransferFraction: pt.DeltaPredicted,
	}, nil
}

// Observation is the simulator-side account of one run.
type Observation struct {
	// Total, Kernel, Transfer and Sync decompose the simulated wall time.
	Total, Kernel, Transfer, Sync time.Duration
	// Rounds is the number of model rounds executed.
	Rounds int
	// Stats aggregates kernel-side counters (transactions, conflicts…).
	Stats simgpu.KernelStats
	// TransferFraction is Δ_E, the observed transfer share.
	TransferFraction float64
	// Transfers carries the engine totals, including retry and corruption
	// counters under fault injection.
	Transfers transfer.Stats
	// Resilience counts the host's fault-recovery work (all zero without
	// an injector).
	Resilience simgpu.ResilienceStats
	// FaultLog is the injector's event log (nil without an injector).
	FaultLog []string
	// Report carries the run's unified trace and metrics snapshot (nil
	// unless Options.Trace or Options.Metrics is set).
	Report *obs.Report
}

func observation(h *simgpu.Host) Observation {
	rep := h.Report()
	o := Observation{
		Total:            rep.Total,
		Kernel:           rep.Kernel,
		Transfer:         rep.Transfer,
		Sync:             rep.Sync,
		Rounds:           rep.Rounds,
		Stats:            rep.Stats,
		TransferFraction: rep.TransferFraction(),
		Transfers:        rep.Transfers,
		Resilience:       rep.Resilience,
		Report:           h.SnapshotObs(),
	}
	for _, ev := range h.FaultEvents() {
		o.FaultLog = append(o.FaultLog, ev.String())
	}
	return o
}

// faultSeed returns the fault seed of the next host the system builds: the
// k-th draws FaultSeed + 1_000_003·k.
func (s *System) faultSeed() int64 {
	return s.opts.FaultSeed + 1_000_003*(s.hostSeq.Add(1)-1)
}

// Lint statically analyses a kernel for a launch of the given block count on
// this system's device, without running anything: shared-memory races,
// barrier divergence, out-of-bounds accesses, memory-performance hazards and
// an Expression (1)/(2) cost estimate using the calibrated parameters.
func (s *System) Lint(prog *kernel.Program, blocks int) (*analyze.Report, error) {
	cp := s.r.CostParams()
	return analyze.Program(prog, analyze.Options{
		Machine: analyze.FromConfig(s.opts.Device),
		Blocks:  blocks,
		Cost:    &cp,
	})
}

// Run executes a registered workload at size n on the simulated device,
// over inputs drawn from seed 1, and checks the result against the CPU
// reference (a mismatch wraps algorithms.ErrVerifyFail).
func (s *System) Run(workload string, n int) (Observation, error) {
	w, err := experiments.Lookup(workload)
	if err != nil {
		return Observation{}, err
	}
	h, err := s.r.NewHost(w.Footprint(n, s.opts.Device.WarpWidth), s.faultSeed())
	if err != nil {
		return Observation{}, err
	}
	if err := w.Run(h, n, w.RunInputs(n)); err != nil {
		return Observation{}, err
	}
	return observation(h), nil
}

// RunVecAdd executes A+B on the simulated device and returns the result
// with its observation.
func (s *System) RunVecAdd(a, b []Word) ([]Word, Observation, error) {
	alg := algorithms.VecAdd{N: len(a)}
	h, err := s.r.NewHost(alg.GlobalWords(), s.faultSeed())
	if err != nil {
		return nil, Observation{}, err
	}
	c, err := alg.Run(h, a, b)
	if err != nil {
		return nil, Observation{}, err
	}
	return c, observation(h), nil
}

// RunReduce executes the sum reduction on the simulated device.
func (s *System) RunReduce(input []Word) (Word, Observation, error) {
	alg := algorithms.Reduce{N: len(input)}
	h, err := s.r.NewHost(alg.GlobalWords(s.opts.Device.WarpWidth), s.faultSeed())
	if err != nil {
		return 0, Observation{}, err
	}
	sum, err := alg.Run(h, input)
	if err != nil {
		return 0, Observation{}, err
	}
	return sum, observation(h), nil
}

// RunMatMul executes C = A×B (row-major n×n) on the simulated device.
func (s *System) RunMatMul(a, b []Word, n int) ([]Word, Observation, error) {
	alg := algorithms.MatMul{N: n}
	h, err := s.r.NewHost(alg.GlobalWords(), s.faultSeed())
	if err != nil {
		return nil, Observation{}, err
	}
	c, err := alg.Run(h, a, b)
	if err != nil {
		return nil, Observation{}, err
	}
	return c, observation(h), nil
}

// RunOutOfCoreReduce executes the partitioned reduction (future work §V),
// comparing serial and overlapped host-communication schedules.
func (s *System) RunOutOfCoreReduce(input []Word, chunkWords int) (algorithms.OutOfCoreResult, error) {
	alg := algorithms.OutOfCoreReduce{N: len(input), ChunkWords: chunkWords}
	b := s.opts.Device.WarpWidth
	footprint := 2*chunkWords + (chunkWords+b-1)/b
	h, err := s.r.NewHost(footprint, s.faultSeed())
	if err != nil {
		return algorithms.OutOfCoreResult{}, err
	}
	return alg.Run(h, input)
}

// PipelineRun compares one workload's sequential-chunked schedule against
// the overlapped multi-stream schedule on identical inputs.
type PipelineRun struct {
	// Chunks and Streams describe the overlapped schedule; the sequential
	// baseline runs the same chunks on a single stream.
	Chunks, Streams int
	// Sequential and Pipelined are the two runs' observations.
	Sequential, Pipelined Observation
	// Saving is Sequential.Total − Pipelined.Total.
	Saving time.Duration
	// Predicted is the overlapped-cost model's account of both schedules.
	Predicted core.PipelinedCost
	// Report folds both runs' observability reports onto one timeline —
	// the sequential schedule's spans tagged "seq/...", the overlapped
	// schedule's "pipe/..." — so the H2D/compute/D2H overlap is visible
	// next to the baseline in one Perfetto view (nil unless
	// Options.Trace or Options.Metrics is set).
	Report *obs.Report
}

// SavingFraction is the saving over the sequential total (0 when
// degenerate).
func (p PipelineRun) SavingFraction() float64 {
	if p.Sequential.Total <= 0 {
		return 0
	}
	return float64(p.Saving) / float64(p.Sequential.Total)
}

// RunPipelined executes a registered workload's pipelined variant at size
// n, over inputs drawn from seed 1, once with its chunks on one stream and
// once overlapped on several, checks both results against the CPU
// reference and prices both schedules.
func (s *System) RunPipelined(workload string, n int) (PipelineRun, error) {
	w, err := experiments.LookupPipelined(workload)
	if err != nil {
		return PipelineRun{}, err
	}
	ph, err := s.r.ObservePipelined(w, n, w.RunInputs(n), s.faultSeed)
	if err != nil {
		return PipelineRun{}, err
	}
	pc, err := s.r.PredictPipelined(w, n)
	if err != nil {
		return PipelineRun{}, err
	}
	pr := PipelineRun{
		Chunks:     ph.Chunks,
		Streams:    ph.Streams,
		Sequential: observation(ph.Sequential),
		Pipelined:  observation(ph.Pipelined),
		Predicted:  pc,
		Report:     ph.Obs,
	}
	pr.Saving = pr.Sequential.Total - pr.Pipelined.Total
	return pr, nil
}

// TableI returns the paper's model feature comparison.
func TableI() string { return models.TableI() }
