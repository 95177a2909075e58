package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"atgpu/internal/algorithms"
	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/simgpu"
)

// Workload describes one registered workload: everything the sweeps,
// atgpud, the CLIs, lint and the figures need to know about it. Adding a
// workload means adding one descriptor to the registry below; every front
// door looks it up by name instead of switching on it.
type Workload struct {
	// Name is the registry key, the -alg spelling and the record name.
	Name string
	// Pipelined is the chunked multi-stream variant (nil when the
	// workload has none).
	Pipelined *Pipelined
	// Panels lists the paper figure panels a sweep of the workload feeds,
	// in print order (nil for workloads outside §IV).
	Panels []Panel

	// sizes is the default sweep ladder, or the paper's exact one when
	// full.
	sizes func(full bool) []int
	// blocks is the block count of a size-n point's first launch at warp
	// width b; it also sizes the model machine the analysis prices.
	blocks func(n, b int) int
	// kernel builds a size-n point's first launched kernel, with the
	// buffer layout the run allocates.
	kernel func(n, b int) (*kernel.Program, error)
	// analyze builds the size-n model analysis on machine p.
	analyze func(n int, p core.Params) (*core.Analysis, error)

	// Footprint is the device words a size-n point allocates at warp
	// width b.
	Footprint func(n, b int) int
	// Inputs draws a size-n point's inputs from rng into buffers it takes
	// from buf, which returns a length-word slice the draw overwrites in
	// full (nil: the workload has no inputs).
	Inputs func(rng *rand.Rand, n int, buf func(length int) []mem.Word) [][]mem.Word
	// Run executes a size-n point on h over its inputs and checks the
	// result against the CPU reference where the workload has one.
	Run func(h *simgpu.Host, n int, in [][]mem.Word) error
}

// Pipelined describes a workload's chunked multi-stream variant, run with
// identical inputs as a one-stream and an overlapped schedule.
type Pipelined struct {
	// blocks is the block count of the widest chunk's launch, which sizes
	// the model machine.
	blocks func(n, b, chunks int) int
	// analyze builds the chunked analysis on machine p.
	analyze func(n, chunks int, p core.Params) (*core.Analysis, error)

	// Footprint is the device words a run with the given stream count
	// allocates.
	Footprint func(n, b, chunks, streams int) (int, error)
	// Run executes the chunked schedule on h over the workload's inputs.
	Run func(h *simgpu.Host, n, chunks, streams int, in [][]mem.Word) error
}

// Panel is one paper figure panel a workload's sweep feeds.
type Panel struct {
	// ID is the paper's label, e.g. "fig3a".
	ID    string
	build func(id string, d *WorkloadData) Figure
}

// Lookup returns the registered workload of that name.
func Lookup(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown workload %q (want %s)", name, strings.Join(WorkloadNames(), ", "))
}

// Workloads returns every registered workload in registry order.
func Workloads() []*Workload { return registry }

// WorkloadNames returns the registered names in registry order.
func WorkloadNames() []string {
	names := make([]string, len(registry))
	for i, w := range registry {
		names[i] = w.Name
	}
	return names
}

// draw draws a size-n point's inputs from rng into buffers taken from buf
// (nil when the workload has none).
func (w *Workload) draw(rng *rand.Rand, n int, buf func(int) []mem.Word) [][]mem.Word {
	if w.Inputs == nil {
		return nil
	}
	return w.Inputs(rng, n, buf)
}

// freshWords is the input buffer source of draws that keep no buffers.
func freshWords(length int) []mem.Word { return make([]mem.Word, length) }

// RunInputs draws the inputs of a single size-n run, outside any sweep,
// into fresh buffers: `atgpu run` and `simgpu` both draw from seed 1.
func (w *Workload) RunInputs(n int) [][]mem.Word {
	return w.draw(rand.New(rand.NewSource(1)), n, freshWords)
}

// Kernel builds the kernel and block count of a size-n point's first
// launch at warp width b: the buffer layout matches the run's, and for
// multi-round workloads (reduce, scan) it is the first — largest — round.
// Its disassembly is the kernel component of atgpud's cache key, and lint
// analyses it.
func (w *Workload) Kernel(n, b int) (*kernel.Program, int, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("%s: non-positive n %d", w.Name, n)
	}
	prog, err := w.kernel(n, b)
	return prog, w.blocks(n, b), err
}

// Analyze builds the size-n model analysis with the launch geometry the
// run uses; params builds the machine instance for a launch of k blocks.
func (w *Workload) Analyze(n, b int, params func(blocks int) core.Params) (*core.Analysis, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: %s: non-positive size %d", w.Name, n)
	}
	return w.analyze(n, params(w.blocks(n, b)))
}

// Analyze builds the chunked analysis of a size-n point at warp width b.
func (p *Pipelined) Analyze(n, b, chunks int, params func(blocks int) core.Params) (*core.Analysis, error) {
	return p.analyze(n, chunks, params(p.blocks(n, b, chunks)))
}

// Fixed shape parameters of the atomic-workload sweeps. They are part of
// each sweep's identity — the cache key hashes the kernel they produce —
// so changing them is a results-format change.
const (
	// HistogramSweepBins is the bucket count of the histogram sweeps.
	HistogramSweepBins = 32
	// TopKSweepK is the slot count of the top-k sweep.
	TopKSweepK = 8
	// MonteCarloTrials is the per-thread draw count of the Monte Carlo
	// sweep.
	MonteCarloTrials = 64
)

// The one builder per shaped workload: the kernel, analysis, footprint and
// run all take their parameters from it. Bins and K clamp to n so tiny
// sizes stay feasible.
func histogram(n int, privatized bool) algorithms.Histogram {
	return algorithms.Histogram{N: n, Bins: min(HistogramSweepBins, n), Privatized: privatized}
}

func topK(n int) algorithms.TopK { return algorithms.TopK{N: n, K: min(TopKSweepK, n)} }

func monteCarlo(n int) algorithms.MonteCarlo {
	return algorithms.MonteCarlo{N: n, Trials: MonteCarloTrials}
}

// align rounds n up to the warp-width allocation granule, where the run's
// next Malloc lands.
func align(n, b int) int { return (n + b - 1) / b * b }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// pow2s returns 2^lo, 2^(lo+step), … up to 2^hi.
func pow2s(lo, hi, step int) []int {
	var sizes []int
	for e := lo; e <= hi; e += step {
		sizes = append(sizes, 1<<e)
	}
	return sizes
}

// pick returns full in Full mode and scaled otherwise.
func pick(full bool, scaled, fullv int) int {
	if full {
		return fullv
	}
	return scaled
}

// atomicSizes is the shared ladder of the atomic workloads: doublings from
// 2^10, three octaves further in Full mode.
func atomicSizes(full bool) []int { return pow2s(10, pick(full, 16, 22), 2) }

// runErr tags an algorithm's own failure, as distinct from a failed check.
func runErr(err error) error {
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	return nil
}

// verifyFail builds a failed-check error.
func verifyFail(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{algorithms.ErrVerifyFail}, args...)...)
}

// The CPU checks of the workloads' runs. Each compares the device output
// with the inputs in place, without allocating a reference the size of the
// input, and fails with algorithms.ErrVerifyFail.

// checkVecAdd checks c = a + b element by element.
func checkVecAdd(in [][]mem.Word, c []mem.Word) error {
	a, b := in[0], in[1]
	if len(c) != len(a) {
		return verifyFail("%d outputs want %d", len(c), len(a))
	}
	for i := range a {
		if want := a[i] + b[i]; c[i] != want {
			return verifyFail("c[%d] = %d want %d", i, c[i], want)
		}
	}
	return nil
}

// checkSum checks a reduction's result.
func checkSum(in [][]mem.Word, got mem.Word) error {
	if want := algorithms.ReduceReference(in[0]); got != want {
		return verifyFail("got %d want %d", got, want)
	}
	return nil
}

// checkMatMul checks C = A×B (row-major n×n). It accumulates each row's
// dot products in one n-word buffer, walking B by rows, which runs several
// times faster than a column walk per entry.
func checkMatMul(n int, in [][]mem.Word, c []mem.Word) error {
	a, b := in[0], in[1]
	if len(c) != n*n {
		return verifyFail("%d outputs want %d", len(c), n*n)
	}
	row := make([]mem.Word, n)
	for i := 0; i < n; i++ {
		clear(row)
		for k, aik := range a[i*n : (i+1)*n] {
			bk := b[k*n : (k+1)*n]
			bk = bk[:len(row)]
			for j := range row {
				row[j] += aik * bk[j]
			}
		}
		for j, want := range row {
			if got := c[i*n+j]; got != want {
				return verifyFail("C[%d][%d] = %d want %d", i, j, got, want)
			}
		}
	}
	return nil
}

// checkScan checks every inclusive prefix sum against a running sum.
func checkScan(in [][]mem.Word, out []mem.Word) error {
	if len(out) != len(in[0]) {
		return verifyFail("%d outputs want %d", len(out), len(in[0]))
	}
	var sum mem.Word
	for i, v := range in[0] {
		sum += v
		if out[i] != sum {
			return verifyFail("prefix %d = %d want %d", i, out[i], sum)
		}
	}
	return nil
}

// twoRand draws two independent length-n operands from [-1000, 1000].
func twoRand(rng *rand.Rand, n int, buf func(int) []mem.Word) [][]mem.Word {
	return [][]mem.Word{randWords(rng, buf(n)), randWords(rng, buf(n))}
}

// pipelinedBlocks is the widest chunk's launch for the one-dimensional
// chunked workloads.
func pipelinedBlocks(n, b, chunks int) int { return ceilDiv(ceilDiv(n, chunks), b) }

// registry holds every workload, in the order the CLIs list them.
var registry = []*Workload{
	{
		// Paper §IV-A. n = 1e6 … 1e7 in Full mode, scaled 10× down
		// otherwise.
		Name: "vecadd",
		sizes: func(full bool) []int {
			step := pick(full, 100_000, 1_000_000)
			sizes := make([]int, 10)
			for i := range sizes {
				sizes[i] = (i + 1) * step
			}
			return sizes
		},
		blocks: func(n, b int) int { return algorithms.VecAdd{N: n}.Blocks(b) },
		kernel: func(n, b int) (*kernel.Program, error) {
			s := align(n, b)
			return algorithms.VecAdd{N: n}.Kernel(b, 0, s, 2*s)
		},
		analyze:   func(n int, p core.Params) (*core.Analysis, error) { return algorithms.VecAdd{N: n}.Analyze(p) },
		Footprint: func(n, _ int) int { return algorithms.VecAdd{N: n}.GlobalWords() },
		Inputs:    twoRand,
		Run: func(h *simgpu.Host, n int, in [][]mem.Word) error {
			c, err := algorithms.VecAdd{N: n}.Run(h, in[0], in[1])
			if err != nil {
				return runErr(err)
			}
			return checkVecAdd(in, c)
		},
		Pipelined: &Pipelined{
			blocks: pipelinedBlocks,
			analyze: func(n, chunks int, p core.Params) (*core.Analysis, error) {
				return algorithms.PipelinedVecAdd{N: n, Chunks: chunks, Streams: pipelineStreams}.Analyze(p)
			},
			Footprint: func(n, b, chunks, streams int) (int, error) {
				return algorithms.PipelinedVecAdd{N: n, Chunks: chunks, Streams: streams}.GlobalWords(b)
			},
			Run: func(h *simgpu.Host, n, chunks, streams int, in [][]mem.Word) error {
				c, err := algorithms.PipelinedVecAdd{N: n, Chunks: chunks, Streams: streams}.Run(h, in[0], in[1])
				if err != nil {
					return err
				}
				return checkVecAdd(in, c)
			},
		},
		Panels: []Panel{{"fig3a", PredictedFigure}, {"fig3b", ObservedFigure}, {"fig3c", NormalisedFigure}, {"fig6a", DeltaFigure}},
	},
	{
		// Paper §IV-B. n = 2^16 … 2^26 in Full mode, … 2^22 otherwise;
		// inputs are "randomly generated vectors of 0/1 values".
		Name:   "reduce",
		sizes:  func(full bool) []int { return pow2s(16, pick(full, 22, 26), 1) },
		blocks: func(n, b int) int { return ceilDiv(n, b) },
		kernel: func(n, b int) (*kernel.Program, error) {
			return algorithms.Reduce{N: n}.Kernel(b, 0, align(n, b), n)
		},
		analyze:   func(n int, p core.Params) (*core.Analysis, error) { return algorithms.Reduce{N: n}.Analyze(p) },
		Footprint: func(n, b int) int { return algorithms.Reduce{N: n}.GlobalWords(b) },
		Inputs: func(rng *rand.Rand, n int, buf func(int) []mem.Word) [][]mem.Word {
			return [][]mem.Word{randBits(rng, buf(n))}
		},
		Run: func(h *simgpu.Host, n int, in [][]mem.Word) error {
			got, err := algorithms.Reduce{N: n}.Run(h, in[0])
			if err != nil {
				return runErr(err)
			}
			return checkSum(in, got)
		},
		Pipelined: &Pipelined{
			blocks: pipelinedBlocks,
			analyze: func(n, chunks int, p core.Params) (*core.Analysis, error) {
				return algorithms.PipelinedReduce{N: n, Chunks: chunks, Streams: pipelineStreams}.Analyze(p)
			},
			Footprint: func(n, b, chunks, streams int) (int, error) {
				return algorithms.PipelinedReduce{N: n, Chunks: chunks, Streams: streams}.GlobalWords(b)
			},
			Run: func(h *simgpu.Host, n, chunks, streams int, in [][]mem.Word) error {
				got, err := algorithms.PipelinedReduce{N: n, Chunks: chunks, Streams: streams}.Run(h, in[0])
				if err != nil {
					return err
				}
				return checkSum(in, got)
			},
		},
		Panels: []Panel{{"fig4a", PredictedFigure}, {"fig4b", ObservedFigure}, {"fig4c", NormalisedFigure}, {"fig6b", DeltaFigure}},
	},
	{
		// Paper §IV-C. n = 32, 64, … 1024 doublings in Full mode, up to
		// 256 otherwise.
		Name:   "matmul",
		sizes:  func(full bool) []int { return pow2s(5, pick(full, 8, 10), 1) },
		blocks: func(n, b int) int { return algorithms.MatMul{N: n}.Blocks(b) },
		kernel: func(n, b int) (*kernel.Program, error) {
			if n%b != 0 {
				return nil, fmt.Errorf("matmul n=%d must be a multiple of warp width %d", n, b)
			}
			s := align(n*n, b)
			return algorithms.MatMul{N: n}.Kernel(b, 0, s, 2*s)
		},
		analyze:   func(n int, p core.Params) (*core.Analysis, error) { return algorithms.MatMul{N: n}.Analyze(p) },
		Footprint: func(n, _ int) int { return algorithms.MatMul{N: n}.GlobalWords() },
		Inputs: func(rng *rand.Rand, n int, buf func(int) []mem.Word) [][]mem.Word {
			return twoRand(rng, n*n, buf)
		},
		Run: func(h *simgpu.Host, n int, in [][]mem.Word) error {
			c, err := algorithms.MatMul{N: n}.Run(h, in[0], in[1])
			if err != nil {
				return runErr(err)
			}
			return checkMatMul(n, in, c)
		},
		Pipelined: &Pipelined{
			// The widest band launches bandTiles·(n/b) blocks.
			blocks: func(n, b, chunks int) int {
				tiles := n / b
				bands := min(chunks, tiles)
				if bands == 0 {
					return 0
				}
				return ceilDiv(tiles, bands) * tiles
			},
			analyze: func(n, chunks int, p core.Params) (*core.Analysis, error) {
				return algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: pipelineStreams}.Analyze(p)
			},
			Footprint: func(n, b, chunks, streams int) (int, error) {
				return algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: streams}.GlobalWords(b)
			},
			Run: func(h *simgpu.Host, n, chunks, streams int, in [][]mem.Word) error {
				c, err := algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: streams}.Run(h, in[0], in[1])
				if err != nil {
					return err
				}
				return checkMatMul(n, in, c)
			},
		},
		// The paper has no normalised matmul panel.
		Panels: []Panel{{"fig5a", PredictedFigure}, {"fig5b", ObservedFigure}, {"fig6c", DeltaFigure}},
	},
	{
		// Future work (§V): "further experiments on other computational
		// problems". Deterministic inputs, so no RNG draw.
		Name:   "scan",
		sizes:  func(full bool) []int { return pow2s(14, pick(full, 20, 24), 2) },
		blocks: func(n, b int) int { return algorithms.Scan{N: n}.Blocks(b) },
		// First (largest) level: data at 0, block sums after it.
		kernel: func(n, b int) (*kernel.Program, error) {
			return algorithms.Scan{N: n}.Kernel(b, 0, align(n, b), n)
		},
		analyze:   func(n int, p core.Params) (*core.Analysis, error) { return algorithms.Scan{N: n}.Analyze(p) },
		Footprint: func(n, b int) int { return algorithms.Scan{N: n}.GlobalWords(b) },
		Inputs: func(_ *rand.Rand, n int, buf func(int) []mem.Word) [][]mem.Word {
			in := buf(n)
			for i := range in {
				in[i] = mem.Word(i%3 - 1)
			}
			return [][]mem.Word{in}
		},
		Run: func(h *simgpu.Host, n int, in [][]mem.Word) error {
			got, err := algorithms.Scan{N: n}.Run(h, in[0])
			if err != nil {
				return runErr(err)
			}
			return checkScan(in, got)
		},
	},
	histogramWorkload("histogram", false),
	histogramWorkload("histogram-priv", true),
	{
		// Stream compaction. The survivor order is schedule-dependent, so
		// the check compares sorted multisets.
		Name:   "compact",
		sizes:  atomicSizes,
		blocks: func(n, b int) int { return algorithms.Compact{N: n}.Blocks(b) },
		kernel: func(n, b int) (*kernel.Program, error) {
			s := align(n, b)
			return algorithms.Compact{N: n}.Kernel(b, 0, s, 2*s)
		},
		analyze:   func(n int, p core.Params) (*core.Analysis, error) { return algorithms.Compact{N: n}.Analyze(p) },
		Footprint: func(n, _ int) int { return algorithms.Compact{N: n}.GlobalWords() },
		// Roughly half the elements survive: draw from [-1000,1000] and
		// zero every third.
		Inputs: func(rng *rand.Rand, n int, buf func(int) []mem.Word) [][]mem.Word {
			in := randWords(rng, buf(n))
			for i := 0; i < n; i += 3 {
				in[i] = 0
			}
			return [][]mem.Word{in}
		},
		Run: func(h *simgpu.Host, n int, in [][]mem.Word) error {
			got, err := algorithms.Compact{N: n}.Run(h, in[0])
			if err != nil {
				return runErr(err)
			}
			if want := algorithms.CompactReference(in[0]); !equalMultiset(got, want) {
				return verifyFail("%d survivors, want %d", len(got), len(want))
			}
			return nil
		},
	},
	{
		// The atomic-max top-k cascade.
		Name:   "topk",
		sizes:  atomicSizes,
		blocks: func(n, b int) int { return topK(n).Blocks(b) },
		kernel: func(n, b int) (*kernel.Program, error) {
			return topK(n).Kernel(b, 0, align(n, b))
		},
		analyze:   func(n int, p core.Params) (*core.Analysis, error) { return topK(n).Analyze(p) },
		Footprint: func(n, _ int) int { return topK(n).GlobalWords() },
		Inputs: func(rng *rand.Rand, n int, buf func(int) []mem.Word) [][]mem.Word {
			return [][]mem.Word{randWords(rng, buf(n))}
		},
		Run: func(h *simgpu.Host, n int, in [][]mem.Word) error {
			alg := topK(n)
			got, err := alg.Run(h, in[0])
			if err != nil {
				return runErr(err)
			}
			want, err := algorithms.TopKReference(in[0], alg.K)
			if err != nil {
				return err
			}
			if !equalMultiset(got, want) {
				return verifyFail("slots %v want %v", got, want)
			}
			return nil
		},
	},
	{
		// The warp-replicated Monte Carlo estimator, swept over thread
		// counts; each thread runs MonteCarloTrials draws, so the ladder is
		// an order smaller than the memory-bound workloads'.
		Name:   "montecarlo",
		sizes:  func(full bool) []int { return pow2s(pick(full, 8, 12), pick(full, 12, 18), 2) },
		blocks: func(n, b int) int { return monteCarlo(n).Blocks(b) },
		kernel: func(n, b int) (*kernel.Program, error) {
			return monteCarlo(n).Kernel(b, 0)
		},
		analyze:   func(n int, p core.Params) (*core.Analysis, error) { return monteCarlo(n).Analyze(p) },
		Footprint: func(n, _ int) int { return monteCarlo(n).GlobalWords() },
		Run: func(h *simgpu.Host, n int, _ [][]mem.Word) error {
			alg := monteCarlo(n)
			got, err := alg.Run(h)
			if err != nil {
				return runErr(err)
			}
			want, err := alg.MonteCarloReference()
			if err != nil {
				return err
			}
			if got != want {
				return verifyFail("hits %d want %d", got, want)
			}
			return nil
		},
	},
}

// histogramWorkload describes the shared-counter histogram (privatized
// false), whose atomic serialisation the contention model prices, or its
// per-block privatized twin.
func histogramWorkload(name string, privatized bool) *Workload {
	return &Workload{
		Name:   name,
		sizes:  atomicSizes,
		blocks: func(n, b int) int { return histogram(n, privatized).Blocks(b) },
		kernel: func(n, b int) (*kernel.Program, error) {
			return histogram(n, privatized).Kernel(b, 0, align(n, b))
		},
		analyze:   func(n int, p core.Params) (*core.Analysis, error) { return histogram(n, privatized).Analyze(p) },
		Footprint: func(n, _ int) int { return histogram(n, privatized).GlobalWords() },
		Inputs: func(rng *rand.Rand, n int, buf func(int) []mem.Word) [][]mem.Word {
			return [][]mem.Word{randNonNeg(rng, buf(n))}
		},
		Run: func(h *simgpu.Host, n int, in [][]mem.Word) error {
			alg := histogram(n, privatized)
			got, err := alg.Run(h, in[0])
			if err != nil {
				return runErr(err)
			}
			want, err := algorithms.HistogramReference(in[0], alg.Bins)
			if err != nil {
				return err
			}
			for i := range want {
				if got[i] != want[i] {
					return verifyFail("bin %d got %d want %d", i, got[i], want[i])
				}
			}
			return nil
		},
	}
}
