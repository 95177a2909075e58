package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchSpec is the part of ../BENCHMARK.json the self-test checks.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortRun is one warm-up and one measured op of a workload.
func shortRun(t *testing.T, workload, results string, trace bool) *outcome {
	t.Helper()
	o := options{
		workload: workload,
		seed:     DefaultSeed,
		trace:    trace,
		results:  results,
		spans:    filepath.Join(t.TempDir(), "spans.json"),
	}
	out, err := workloads[workload](o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return out
}

// TestEveryMetricPrinted runs each workload untraced and traced and
// requires exactly the metrics BENCHMARK.json names, each with its unit,
// and a correct, failure-free result.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, workload := range []string{"paper-sweep", "atomics-sweep", "daemon-mix"} {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			out := shortRun(t, workload, "../results", trace)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d; notes %q",
					workload, trace, out.Correct, out.Attempted, out.Failed, out.notes)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d",
					workload, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", workload, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", workload, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedCSVTripsGate flips one byte of one committed figure CSV in
// a copy of results/ and requires paper-sweep to report the run incorrect.
func TestCorruptedCSVTripsGate(t *testing.T) {
	dir := t.TempDir()
	csvs, err := filepath.Glob("../results/fig*.csv")
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no committed figure CSVs: %v", err)
	}
	for _, p := range csvs {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(p) == "fig4b.csv" {
			b[len(b)-2] ^= 1 // a digit of the last value
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := shortRun(t, "paper-sweep", dir, false)
	if out.Correct || out.Failed == 0 {
		t.Fatalf("corrupted fig4b.csv passed the gate: correct=%v failed=%d", out.Correct, out.Failed)
	}
}
