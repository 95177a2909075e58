package experiments

import (
	"fmt"

	"atgpu/internal/core"
	"atgpu/internal/mem"
	"atgpu/internal/obs"
	"atgpu/internal/results"
	"atgpu/internal/simgpu"
)

// Pipelined sweeps compare the sequential-chunked schedule against the
// overlapped multi-stream schedule of the same workload on identical
// inputs, alongside the overlapped-cost model's prediction of both
// (core.GPUCostPipelined). Every point runs two fresh hosts — one with a
// single stream, one with pipelineStreams — so the observed gap is purely
// the schedule, never the inputs or the device.

// pipelineStreams is the stream count of the overlapped schedule: classic
// double buffering. The sequential baseline always uses one stream.
const pipelineStreams = 2

// defaultChunks is the chunk count when Config.Chunks is zero. Four chunks
// is the smallest split where the steady-state of the pipeline dominates
// its fill and drain.
const defaultChunks = 4

// chunks resolves the effective chunk count.
func (c Config) chunks() int {
	if c.Chunks > 0 {
		return c.Chunks
	}
	return defaultChunks
}

// PipelinePoint is one input size's sequential-versus-pipelined outcome.
type PipelinePoint struct {
	// N is the input size (vector length or matrix side).
	N int
	// Chunks and Streams describe the overlapped schedule.
	Chunks, Streams int
	// SequentialTime and PipelinedTime are the observed simulated totals
	// in seconds for the one-stream and multi-stream runs.
	SequentialTime, PipelinedTime float64
	// ObservedSaving is SequentialTime − PipelinedTime (seconds).
	ObservedSaving float64
	// PredictedSequential and PredictedPipelined are the overlapped-cost
	// model's totals in seconds; PredictedSaving their difference.
	PredictedSequential, PredictedPipelined, PredictedSaving float64
	// Obs is the point's observability report: the sequential run's
	// spans tagged "seq/...", the overlapped run's "pipe/...", so the
	// two schedules sit side by side in one trace (nil unless
	// Config.Obs enables collection).
	Obs *obs.Report

	// Failed marks a point that panicked or was cancelled before it
	// started (Config.Context); its timings are zero and Err explains.
	Failed bool
	// Err is the failure message when Failed.
	Err string
}

// ObservedSavingFraction is the observed saving over the sequential total
// (0 when degenerate).
func (p PipelinePoint) ObservedSavingFraction() float64 {
	if p.SequentialTime <= 0 {
		return 0
	}
	return p.ObservedSaving / p.SequentialTime
}

// PredictedSavingFraction is the predicted saving over the predicted
// sequential total (0 when degenerate).
func (p PipelinePoint) PredictedSavingFraction() float64 {
	if p.PredictedSequential <= 0 {
		return 0
	}
	return p.PredictedSaving / p.PredictedSequential
}

// PipelineData is one workload's pipelined sweep.
type PipelineData struct {
	// Workload names the pipelined algorithm.
	Workload string
	// Points holds one entry per input size, in the sweep's size order.
	Points []PipelinePoint
	// Records holds the canonical result records, one per point in
	// point order, stamped with the run identity.
	Records []results.Record
	// Obs folds every point's report in point order, each tagged
	// "<workload> n=<N>" (nil unless Config.Obs enables collection).
	Obs *obs.Report
}

// PipelinePointRecord converts one pipeline point into the canonical
// record shape (payload only, no run identity).
func PipelinePointRecord(workload string, pt PipelinePoint) results.Record {
	rec := results.Record{
		Kind:     "pipeline",
		Workload: workload,
		N:        pt.N,
		Chunks:   pt.Chunks,
		Failed:   pt.Failed,
		Err:      pt.Err,
	}
	if pt.PredictedSequential != 0 || pt.PredictedPipelined != 0 {
		rec.Predicted = &results.Predicted{
			SequentialS: pt.PredictedSequential,
			PipelinedS:  pt.PredictedPipelined,
			SavingS:     pt.PredictedSaving,
		}
	}
	if pt.SequentialTime > 0 || pt.PipelinedTime > 0 {
		rec.Observed = &results.Observed{
			SequentialS: pt.SequentialTime,
			PipelinedS:  pt.PipelinedTime,
			SavingS:     pt.ObservedSaving,
		}
	}
	if snap := pt.Obs.Snapshot(); !snap.Empty() {
		rec.Obs = &snap
	}
	return rec
}

// PipelineRecord converts one pipeline point into the canonical record
// stamped with this runner's run identity.
func (r *Runner) PipelineRecord(workload string, pt PipelinePoint) results.Record {
	rec := PipelinePointRecord(workload, pt)
	r.stampIdentity(&rec)
	return rec
}

// runPipelineSweep mirrors runSweep for pipeline points, dispatched
// largest first: points are self-contained, so the assembly is
// byte-identical for any worker count. Panicking points are recorded as
// Failed with the stack in Err; cancellation returns the partial data
// with ErrCancelled.
func (r *Runner) runPipelineSweep(workload string, sizes []int, point func(idx, n int) (PipelinePoint, error)) (*PipelineData, error) {
	data := &PipelineData{Workload: workload, Points: make([]PipelinePoint, len(sizes))}
	errs := r.dispatch(sizes, func(i int) error {
		pt, err := point(i, sizes[i])
		if err != nil {
			return err
		}
		data.Points[i] = pt
		return nil
	})
	cancelled, err := absorbSweepErrs(errs, func(i int, failed WorkloadPoint) {
		data.Points[i] = PipelinePoint{N: sizes[i], Failed: true, Err: failed.Err}
	})
	if err != nil {
		return nil, err
	}
	data.Records = make([]results.Record, len(data.Points))
	for i := range data.Points {
		data.Records[i] = r.PipelineRecord(workload, data.Points[i])
	}
	if err := r.foldPipelineObs(workload, data); err != nil {
		return nil, err
	}
	if cancelled {
		return data, ErrCancelled
	}
	return data, nil
}

// foldPipelineObs merges per-point reports in point order (no-op with
// observability off). Always returns nil; the error slot keeps the
// call sites single-line.
func (r *Runner) foldPipelineObs(workload string, data *PipelineData) error {
	if !r.cfg.Obs.Enabled() {
		return nil
	}
	data.Obs = r.newSweepReport()
	for i := range data.Points {
		data.Obs.Merge(data.Points[i].Obs, fmt.Sprintf("%s n=%d", workload, data.Points[i].N))
	}
	return nil
}

// LookupPipelined returns the registered workload of that name, which must
// have a pipelined variant.
func LookupPipelined(name string) (*Workload, error) {
	w, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if w.Pipelined == nil {
		return nil, fmt.Errorf("experiments: workload %q has no pipelined variant", name)
	}
	return w, nil
}

// PredictPipelined prices a size-n point of w's pipelined variant with the
// overlapped-cost model (Expression 2 with per-round pipelining).
func (r *Runner) PredictPipelined(w *Workload, n int) (core.PipelinedCost, error) {
	a, err := w.Pipelined.Analyze(n, r.cfg.Device.WarpWidth, r.cfg.chunks(), r.ModelParams)
	if err != nil {
		return core.PipelinedCost{}, fmt.Errorf("analyze: %w", err)
	}
	pc, err := core.GPUCostPipelined(a, r.params)
	if err != nil {
		return pc, fmt.Errorf("predict: %w", err)
	}
	return pc, nil
}

// PipelineHosts is one pipelined comparison: the same chunks run on one
// stream and overlapped on several, each on its own finished host.
type PipelineHosts struct {
	// Chunks and Streams describe the overlapped schedule.
	Chunks, Streams int
	// Sequential and Pipelined are the one-stream and overlapped runs.
	Sequential, Pipelined *simgpu.Host
	// Obs folds both runs' reports, the sequential run's spans tagged
	// "seq/...", the overlapped run's "pipe/...", so the two schedules sit
	// side by side in one trace (nil unless Config.Obs enables collection).
	Obs *obs.Report
}

// ObservePipelined runs a size-n point of w's pipelined variant over in,
// once per schedule, each on a fresh host armed with the next faultSeed().
func (r *Runner) ObservePipelined(w *Workload, n int, in [][]mem.Word, faultSeed func() int64) (PipelineHosts, error) {
	ph := PipelineHosts{Chunks: r.cfg.chunks(), Streams: pipelineStreams}
	p, b := w.Pipelined, r.cfg.Device.WarpWidth
	observe := func(streams int, tag string) (*simgpu.Host, error) {
		words, err := p.Footprint(n, b, ph.Chunks, streams)
		if err != nil {
			return nil, err
		}
		h, err := r.NewHost(words, faultSeed())
		if err != nil {
			return nil, err
		}
		if err := p.Run(h, n, ph.Chunks, streams, in); err != nil {
			return nil, err
		}
		if rep := h.SnapshotObs(); rep != nil {
			if ph.Obs == nil {
				ph.Obs = r.newSweepReport()
			}
			ph.Obs.Merge(rep, tag)
		}
		return h, nil
	}
	var err error
	if ph.Sequential, err = observe(1, "seq"); err != nil {
		return ph, fmt.Errorf("sequential: %w", err)
	}
	if ph.Pipelined, err = observe(ph.Streams, "pipe"); err != nil {
		return ph, fmt.Errorf("pipelined: %w", err)
	}
	return ph, nil
}

// SweepPipelined runs a registered workload's sequential-versus-overlapped
// sweep over its effective sizes, recorded as "<workload>-pipelined".
func (r *Runner) SweepPipelined(workload string) (*PipelineData, error) {
	w, err := LookupPipelined(workload)
	if err != nil {
		return nil, err
	}
	sizes, err := r.cfg.SweepSizes(workload)
	if err != nil {
		return nil, err
	}
	name := w.Name + "-pipelined"
	return r.runPipelineSweep(name, sizes, func(idx, n int) (PipelinePoint, error) {
		pc, err := r.PredictPipelined(w, n)
		if err != nil {
			return PipelinePoint{}, fmt.Errorf("%s n=%d: %w", name, n, err)
		}
		// Both schedules run with the point's one derived fault seed.
		seed := derivedSeed(r.cfg.FaultSeed, "fault", name, n, idx)
		ph, err := r.ObservePipelined(w, n, r.inputs(w, name, n, idx), func() int64 { return seed })
		if err != nil {
			return PipelinePoint{}, fmt.Errorf("%s n=%d %w", name, n, err)
		}
		seq, pipe := ph.Sequential.Report().Total.Seconds(), ph.Pipelined.Report().Total.Seconds()
		return PipelinePoint{
			N:                   n,
			Chunks:              ph.Chunks,
			Streams:             ph.Streams,
			SequentialTime:      seq,
			PipelinedTime:       pipe,
			ObservedSaving:      seq - pipe,
			PredictedSequential: pc.Sequential,
			PredictedPipelined:  pc.Pipelined,
			PredictedSaving:     pc.Saving(),
			Obs:                 ph.Obs,
		}, nil
	})
}
