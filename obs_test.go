package atgpu

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atgpu/internal/simgpu"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden observability fixtures under testdata/")

// goldenTracePath is the checked-in Perfetto trace of the fixture run.
const goldenTracePath = "testdata/pipelined_reduce_trace.json"

// tracedReduceRun executes the golden fixture scenario: a 256-word
// pipelined reduction on the Tiny device with full observability on.
// Inputs, schedule and clock are all deterministic, so the rendered
// trace must be byte-stable across runs, machines and worker counts.
func tracedReduceRun(t *testing.T) *PipelineRun {
	t.Helper()
	opts := DefaultOptions()
	opts.Device = simgpu.Tiny()
	opts.Trace = true
	opts.Metrics = true
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	// RunPipelined checks the sum against the CPU reference itself.
	pr, err := sys.RunPipelined("reduce", 256)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Report == nil || pr.Report.Trace == nil {
		t.Fatal("traced run returned no report")
	}
	return &pr
}

func renderTrace(t *testing.T, pr *PipelineRun) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pr.Report.Trace.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenPipelinedReduceTrace pins the exact Perfetto JSON the
// fixture run exports. A diff here means the trace schema or the
// simulated schedule changed; regenerate with
//
//	go test -run TestGoldenPipelinedReduceTrace -update-golden .
//
// and review the diff like any other golden change.
func TestGoldenPipelinedReduceTrace(t *testing.T) {
	got := renderTrace(t, tracedReduceRun(t))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenTracePath, len(got))
		return
	}
	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverged from %s (%d vs %d bytes); rerun with -update-golden and review",
			goldenTracePath, len(got), len(want))
	}
}

// TestTraceRunToRunStable renders the fixture twice from scratch and
// demands byte equality — the in-process half of the golden guarantee.
func TestTraceRunToRunStable(t *testing.T) {
	a := renderTrace(t, tracedReduceRun(t))
	b := renderTrace(t, tracedReduceRun(t))
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs rendered different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTracedRunCoversAllLayers checks the one-timeline promise: the
// fixture's trace holds spans from the host resource tracks, the
// per-stream view, the embedded device block slices and the transfer
// engine, under both schedule tags.
func TestTracedRunCoversAllLayers(t *testing.T) {
	pr := tracedReduceRun(t)
	seen := map[string]bool{}
	for _, s := range pr.Report.Trace.Spans() {
		seen[s.Proc] = true
	}
	for _, want := range []string{
		"seq/host", "seq/streams", "seq/device", "seq/transfer",
		"pipe/host", "pipe/streams", "pipe/device", "pipe/transfer",
	} {
		if !seen[want] {
			t.Errorf("trace missing process %q (have %v)", want, seen)
		}
	}
	snap := pr.Report.Metrics
	if snap.Empty() {
		t.Fatal("metrics snapshot empty")
	}
	for _, want := range []string{
		"atgpu_host_launches_total",
		"atgpu_transfer_in_words_total",
	} {
		if _, ok := snap.Counters[want]; !ok {
			t.Errorf("metrics missing counter %s", want)
		}
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "atgpu_host_total_ns") {
		t.Error("Prometheus exposition missing atgpu_host_total_ns gauge")
	}
}
