package experiments

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"atgpu/internal/algorithms"
	"atgpu/internal/kernel"
	"atgpu/internal/mem"
	"atgpu/internal/obs"
	"atgpu/internal/simgpu"
)

// tinySize is a small legal size of w for the warp width b: matmul needs
// a multiple of b, the rest take anything.
func tinySize(w *Workload, b int) int {
	if w.Name == "matmul" {
		return b
	}
	return 2 * b
}

// TestWorkloadKernelMatchesFirstLaunch pins the cache key's kernel to the
// truth: for every registered workload, Kernel's disassembly and block
// count must equal the first launch a one-point run actually makes —
// including unaligned sizes and sizes small enough to clamp bins and K.
func TestWorkloadKernelMatchesFirstLaunch(t *testing.T) {
	r := newTestRunner(t)
	b := r.cfg.Device.WarpWidth
	for _, w := range Workloads() {
		sizes := []int{20, 100}
		if w.Name == "matmul" {
			sizes = []int{b, 2 * b}
		}
		for _, n := range sizes {
			prog, blocks, err := w.Kernel(n, b)
			if err != nil {
				t.Fatalf("%s n=%d: Kernel: %v", w.Name, n, err)
			}
			h, err := r.newHost(w.Footprint(n, b), w.Name, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			var first *kernel.Program
			var firstBlocks int
			h.SetLaunchObserver(func(p *kernel.Program, blocks int, _ simgpu.KernelResult) {
				if first == nil {
					first, firstBlocks = p, blocks
				}
			})
			if err := w.Run(h, n, r.inputs(w, w.Name, n, 0)); err != nil {
				t.Fatalf("%s n=%d: run: %v", w.Name, n, err)
			}
			if first == nil {
				t.Fatalf("%s n=%d: no launch observed", w.Name, n)
			}
			if got, want := prog.Disassemble(), first.Disassemble(); got != want || blocks != firstBlocks {
				t.Errorf("%s n=%d: key kernel (%d blocks) differs from the first launch (%d blocks):\n%s\nvs\n%s",
					w.Name, n, blocks, firstBlocks, got, want)
			}
		}
	}
}

// TestRegistrySweepsThroughRunner: every registered workload sweeps, and
// every pipelined variant sweeps, through the one generic point.
func TestRegistrySweepsThroughRunner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Sizes = map[string][]int{}
	b := cfg.Device.WarpWidth
	for _, w := range Workloads() {
		cfg.Sizes[w.Name] = []int{tinySize(w, b)}
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		data, err := r.Sweep(w.Name)
		checkSweep(t, data, err)
		if data.Workload != w.Name || len(data.Points) != 1 {
			t.Errorf("%s: sweep = %q with %d points", w.Name, data.Workload, len(data.Points))
		}
		if w.Pipelined == nil {
			if _, err := r.SweepPipelined(w.Name); err == nil {
				t.Errorf("%s: pipelined sweep of a workload without a variant accepted", w.Name)
			}
			continue
		}
		pd, err := r.SweepPipelined(w.Name)
		if err != nil {
			t.Fatalf("%s: pipelined sweep: %v", w.Name, err)
		}
		if pd.Workload != w.Name+"-pipelined" || len(pd.Points) != 1 || pd.Points[0].PipelinedTime <= 0 {
			t.Errorf("%s: pipelined sweep = %+v", w.Name, pd)
		}
	}
	if _, err := r.Sweep("sort"); err == nil {
		t.Error("unknown workload swept")
	}
}

// TestFaultedSweepIsolatesPoints: a point whose retries run out is
// recorded as Failed and the sweep carries on — scan included, which once
// skipped the per-point fault isolation and aborted the whole sweep.
func TestFaultedSweepIsolatesPoints(t *testing.T) {
	for _, tc := range []struct {
		workload   string
		rate       float64
		seed       int64
		wantFailed int
	}{
		{"scan", 0.2, 1, 1},
		{"vecadd", 1, 3, 2},
	} {
		cfg := DefaultConfig()
		cfg.Sizes = map[string][]int{tc.workload: {4096, 16384}}
		cfg.FaultRate = tc.rate
		cfg.FaultSeed = tc.seed
		cfg.MaxRetries = 1
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := r.Sweep(tc.workload)
		if err != nil {
			t.Fatalf("%s rate=%v: faulted sweep aborted: %v", tc.workload, tc.rate, err)
		}
		if len(data.Points) != 2 || data.FailedPoints() != tc.wantFailed {
			t.Errorf("%s rate=%v: %d points, %d failed; want 2 points, %d failed",
				tc.workload, tc.rate, len(data.Points), data.FailedPoints(), tc.wantFailed)
		}
		for _, p := range data.Points {
			if p.Failed && (p.Err == "" || len(p.FaultLog) == 0) {
				t.Errorf("%s n=%d: failed point without error or fault log: %+v", tc.workload, p.N, p)
			}
		}
	}
}

// TestScanSweepCollectsObs: scan points carry their observability report
// like every other workload's.
func TestScanSweepCollectsObs(t *testing.T) {
	cfg := testConfig()
	cfg.Sizes["scan"] = []int{1 << 10}
	cfg.Obs = obs.Options{Metrics: true}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.Sweep("scan")
	if err != nil {
		t.Fatal(err)
	}
	if data.Points[0].Obs == nil || data.Obs == nil {
		t.Fatal("scan sweep collected no observability report")
	}
}

// TestRunChecksCatchOffByOne: every run check accepts the CPU reference's
// output and rejects, with ErrVerifyFail, the same output with any one
// word (first, middle or last) off by one.
func TestRunChecksCatchOffByOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 6
	vec, mat, seq := twoRand(rng, n, freshWords), twoRand(rng, n*n, freshWords), [][]mem.Word{randWords(rng, freshWords(n))}
	vecOut, err := algorithms.VecAddReference(vec[0], vec[1])
	if err != nil {
		t.Fatal(err)
	}
	matOut, err := algorithms.MatMulReference(mat[0], mat[1], n)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		out   []mem.Word
		check func(out []mem.Word) error
	}{
		{"vecadd", vecOut, func(out []mem.Word) error { return checkVecAdd(vec, out) }},
		{"reduce", []mem.Word{algorithms.ReduceReference(seq[0])}, func(out []mem.Word) error { return checkSum(seq, out[0]) }},
		{"matmul", matOut, func(out []mem.Word) error { return checkMatMul(n, mat, out) }},
		{"scan", algorithms.ScanReference(seq[0]), func(out []mem.Word) error { return checkScan(seq, out) }},
	} {
		if err := tc.check(tc.out); err != nil {
			t.Errorf("%s: correct output rejected: %v", tc.name, err)
		}
		for _, i := range []int{0, len(tc.out) / 2, len(tc.out) - 1} {
			bad := slices.Clone(tc.out)
			bad[i]++
			if err := tc.check(bad); !errors.Is(err, algorithms.ErrVerifyFail) {
				t.Errorf("%s: output word %d off by one: err = %v, want ErrVerifyFail", tc.name, i, err)
			}
		}
	}
}
