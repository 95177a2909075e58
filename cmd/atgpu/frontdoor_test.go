package main

import (
	"os"
	"strings"
	"testing"

	"atgpu"
	"atgpu/internal/experiments"
	"atgpu/internal/simgpu"
)

// silence discards the commands' stdout/stderr tables for the test.
func silence(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = null, null
	t.Cleanup(func() {
		os.Stdout, os.Stderr = stdout, stderr
		null.Close()
	})
}

// TestRegistryReachableThroughCLI: every registered workload works through
// `atgpu analyze`, `atgpu run`, `atgpu sweep` and `atgpu lint -alg`, and
// `run -pipeline` and `sweep -pipeline` take exactly the workloads with a
// pipelined variant.
func TestRegistryReachableThroughCLI(t *testing.T) {
	silence(t)
	opts := atgpu.DefaultOptions()
	opts.Device = simgpu.Tiny()
	opts.Workers = 1
	// 8 is a multiple of the tiny warp width (matmul) and small enough for
	// its shared memory.
	const n = 8
	for _, w := range experiments.Workloads() {
		if err := analyzeCmd(w.Name, n, opts); err != nil {
			t.Errorf("analyze -alg %s: %v", w.Name, err)
		}
		if err := run(w.Name, n, opts, "", ""); err != nil {
			t.Errorf("run -alg %s: %v", w.Name, err)
		}
		if err := runPipelined(w.Name, n, opts, "", ""); (err == nil) != (w.Pipelined != nil) {
			t.Errorf("run -pipeline -alg %s: err = %v, pipelined variant = %v", w.Name, err, w.Pipelined != nil)
		}
		// A lint run that reports error-severity findings still reached
		// the workload; only other failures count.
		if err := lintCmd(nil, w.Name, n, 0, false, "", opts); err != nil && !strings.HasPrefix(err.Error(), "lint: ") {
			t.Errorf("lint -alg %s: %v", w.Name, err)
		}
		cfg := opts.ExperimentConfig()
		cfg.Sizes = map[string][]int{w.Name: {n}}
		if err := sweep(cfg, w.Name, "", "", "", "local"); err != nil {
			t.Errorf("sweep -alg %s: %v", w.Name, err)
		}
		err := sweepPipelined(cfg, w.Name, "", "", "", "local")
		if (err == nil) != (w.Pipelined != nil) {
			t.Errorf("sweep -pipeline -alg %s: err = %v, pipelined variant = %v", w.Name, err, w.Pipelined != nil)
		}
	}
	if err := analyzeCmd("sort", n, opts); err == nil {
		t.Error("analyze accepted an unknown workload")
	}
	if err := run("sort", n, opts, "", ""); err == nil {
		t.Error("run accepted an unknown workload")
	}
}
