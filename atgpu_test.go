package atgpu

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"atgpu/internal/core"
	"atgpu/internal/simgpu"
)

// testSystem builds a System over the small Tiny device so unit tests stay
// fast.
func testSystem(t *testing.T) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.Device = simgpu.Tiny()
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Device.NumSMs = 0
	if _, err := NewSystem(opts); err == nil {
		t.Error("invalid device accepted")
	}
	opts = DefaultOptions()
	opts.SyncCost = -time.Second
	if _, err := NewSystem(opts); err == nil {
		t.Error("negative sync cost accepted")
	}
}

func TestSystemPredictions(t *testing.T) {
	sys := testSystem(t)
	for _, tc := range []struct {
		name string
		pred func() (*Prediction, error)
	}{
		{"vecadd", func() (*Prediction, error) { return sys.AnalyzeVecAdd(1000) }},
		{"reduce", func() (*Prediction, error) { return sys.AnalyzeReduce(1000) }},
		{"matmul", func() (*Prediction, error) { return sys.AnalyzeMatMul(16) }},
	} {
		p, err := tc.pred()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.GPUCost <= 0 || p.PerfectCost <= 0 || p.SWGPUCost <= 0 {
			t.Errorf("%s: non-positive costs: %+v", tc.name, p)
		}
		if p.PerfectCost > p.GPUCost+1e-12 {
			t.Errorf("%s: perfect cost %g exceeds GPU cost %g", tc.name, p.PerfectCost, p.GPUCost)
		}
		if p.SWGPUCost >= p.GPUCost {
			t.Errorf("%s: SWGPU %g not below ATGPU %g", tc.name, p.SWGPUCost, p.GPUCost)
		}
		if p.TransferFraction <= 0 || p.TransferFraction >= 1 {
			t.Errorf("%s: ΔT = %g", tc.name, p.TransferFraction)
		}
		if p.Analysis == nil || p.Analysis.R() < 1 {
			t.Errorf("%s: missing analysis", tc.name)
		}
	}
}

func TestSystemRunVecAdd(t *testing.T) {
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(1))
	n := 100
	a := make([]Word, n)
	b := make([]Word, n)
	for i := range a {
		a[i] = Word(rng.Intn(100))
		b[i] = Word(rng.Intn(100))
	}
	c, obs, err := sys.RunVecAdd(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i] != a[i]+b[i] {
			t.Fatalf("c[%d] = %d", i, c[i])
		}
	}
	if obs.Total <= 0 || obs.Kernel <= 0 || obs.Transfer <= 0 {
		t.Fatalf("observation has zero components: %+v", obs)
	}
	if obs.Total != obs.Kernel+obs.Transfer+obs.Sync {
		t.Fatal("observation total inconsistent")
	}
	if obs.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", obs.Rounds)
	}
	if obs.TransferFraction <= 0 || obs.TransferFraction >= 1 {
		t.Fatalf("ΔE = %g", obs.TransferFraction)
	}
}

func TestSystemRunReduce(t *testing.T) {
	sys := testSystem(t)
	in := make([]Word, 333)
	var want Word
	for i := range in {
		in[i] = Word(i % 7)
		want += in[i]
	}
	sum, obs, err := sys.RunReduce(in)
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if obs.Rounds < 2 {
		t.Fatalf("rounds = %d, want multi-round", obs.Rounds)
	}
}

func TestSystemRunMatMul(t *testing.T) {
	sys := testSystem(t)
	n := 8
	a := make([]Word, n*n)
	b := make([]Word, n*n)
	for i := range a {
		a[i] = Word(i % 5)
		b[i] = Word(i % 3)
	}
	c, _, err := sys.RunMatMul(a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check one entry against the definition.
	var want Word
	for k := 0; k < n; k++ {
		want += a[1*n+k] * b[k*n+2]
	}
	if c[1*n+2] != want {
		t.Fatalf("c[1][2] = %d, want %d", c[1*n+2], want)
	}
}

func TestSystemOutOfCore(t *testing.T) {
	sys := testSystem(t)
	in := make([]Word, 2000)
	var want Word
	for i := range in {
		in[i] = Word(i % 2)
		want += in[i]
	}
	res, err := sys.RunOutOfCoreReduce(in, 256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != want {
		t.Fatalf("sum = %d, want %d", res.Sum, want)
	}
	if res.OverlappedTime > res.SerialTime {
		t.Fatal("overlap slower than serial")
	}
}

func TestPredictionTracksObservation(t *testing.T) {
	// The headline property on the default (GTX650) system: the predicted
	// transfer share is within 10 points of the observed share, and the
	// ATGPU cost explains most of the observed total while SWGPU does not
	// (for a transfer-dominated workload).
	sys, err := NewSystem(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 16
	pred, err := sys.AnalyzeVecAdd(n)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]Word, n)
	b := make([]Word, n)
	_, obs, err := sys.RunVecAdd(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dT, dE := pred.TransferFraction, obs.TransferFraction
	if dT < dE-0.10 || dT > dE+0.10 {
		t.Errorf("ΔT = %.3f vs ΔE = %.3f, want within 0.10", dT, dE)
	}
	total := obs.Total.Seconds()
	atgpuShare := pred.GPUCost / total
	swShare := pred.SWGPUCost / total
	if atgpuShare < 0.7 || atgpuShare > 1.3 {
		t.Errorf("ATGPU explains %.2f of total, want ≈1", atgpuShare)
	}
	if swShare > 0.5 {
		t.Errorf("SWGPU explains %.2f of total, want well below ATGPU", swShare)
	}
}

func TestTableIFacade(t *testing.T) {
	out := TableI()
	if !strings.Contains(out, "ATGPU") || !strings.Contains(out, "Host/Device Data Transfer") {
		t.Fatalf("TableI output wrong:\n%s", out)
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := testSystem(t)
	if err := sys.CostParams().Validate(); err != nil {
		t.Fatalf("calibrated params invalid: %v", err)
	}
	if sys.Options().Device.Name != simgpu.Tiny().Name {
		t.Fatalf("Options lost the device: %+v", sys.Options())
	}
	p := sys.ModelParams(8)
	if p.K() != 8 || p.B != simgpu.Tiny().WarpWidth {
		t.Fatalf("ModelParams = %+v", p)
	}
}

// customAnalysis hand-builds an analysis the way the kernel-designer
// example's workflow does for a new algorithm.
func customAnalysis(sys *System) *core.Analysis {
	return &core.Analysis{
		Name:   "custom",
		Params: sys.ModelParams(16),
		Rounds: []core.Round{{
			Time: 25, IO: 32, Blocks: 16,
			SharedWords: 8, GlobalWords: 128,
			InWords: 64, InTransactions: 1,
			OutWords: 64, OutTransactions: 1,
		}},
	}
}

func TestSystemAnalyzeCustom(t *testing.T) {
	sys := testSystem(t)
	pred, err := sys.Analyze(customAnalysis(sys))
	if err != nil {
		t.Fatal(err)
	}
	if pred.GPUCost <= 0 || pred.SWGPUCost <= 0 {
		t.Fatalf("prediction degenerate: %+v", pred)
	}
	if pred.TransferFraction <= 0 {
		t.Fatal("custom analysis lost its transfer share")
	}
	// An infeasible analysis must be rejected by the cost functions.
	bad := customAnalysis(sys)
	bad.Rounds[0].SharedWords = sys.Options().Device.SharedWords + 1
	if _, err := sys.Analyze(bad); err == nil {
		t.Fatal("infeasible analysis accepted")
	}
}

func TestSystemRunPipelined(t *testing.T) {
	sys := testSystem(t)
	// RunPipelined checks every output against the CPU reference (the
	// registry checks experiments.TestRunChecksCatchOffByOne pins), so a
	// nil error means the results verified.
	pr, err := sys.RunPipelined("vecadd", 512)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Chunks != 4 || pr.Streams != 2 {
		t.Fatalf("schedule %d chunks / %d streams, want 4/2", pr.Chunks, pr.Streams)
	}
	if pr.Saving <= 0 {
		t.Fatalf("pipelined vecadd saved %v, want > 0 (seq %v, pipe %v)",
			pr.Saving, pr.Sequential.Total, pr.Pipelined.Total)
	}
	if f := pr.SavingFraction(); f <= 0 || f >= 1 {
		t.Fatalf("saving fraction %g outside (0,1)", f)
	}
	if f := pr.Predicted.SavingFraction(); f <= 0 || f >= 1 {
		t.Fatalf("predicted saving fraction %g outside (0,1)", f)
	}

	rp, err := sys.RunPipelined("reduce", 512)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Sequential.Total <= 0 || rp.Pipelined.Total <= 0 {
		t.Fatalf("reduce observations empty: %+v", rp)
	}

	mp, err := sys.RunPipelined("matmul", 16)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Pipelined.Total > mp.Sequential.Total {
		t.Fatalf("matmul pipelined %v slower than sequential %v",
			mp.Pipelined.Total, mp.Sequential.Total)
	}

	if _, err := sys.RunPipelined("scan", 64); err == nil {
		t.Error("scan has no pipelined variant but RunPipelined accepted it")
	}

	bad := DefaultOptions()
	bad.Chunks = -2
	if _, err := NewSystem(bad); err == nil {
		t.Error("negative chunks accepted")
	}
}
