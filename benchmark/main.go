// Command atgpu-bench is the repository benchmark. It runs one named
// workload from a seed, checks the program's outputs, and prints every
// metric by name and unit. With -trace 0 it prints the end-to-end metrics;
// with -trace 1 it re-drives the same work through each layer's public
// functions and prints the per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds and runs this package):
//
//	bash benchmark/run.sh --workload paper-sweep|atomics-sweep|daemon-mix \
//	    --seed 1 --seconds 30 --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it, prefixed "# ",
// carry the sample counts, exact work counters and the record digest.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Seeds: DefaultSeed is the development seed; HeldOutSeed is kept back so
// a later performance claim can be rechecked on a seed not used while the
// change was written.
const (
	DefaultSeed = 1
	HeldOutSeed = 12345
)

// setupReps is how many times each workload repeats its set-up; setup_s
// is their median.
const setupReps = 25

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// results is the directory holding the committed figure CSVs.
	results string
	// spans is where a traced run writes its span list.
	spans string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed before the result line, prefixed "# ".
	notes []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = make(map[string]metric)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation and marks the run incorrect.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Correct = false
	o.note("FAIL: "+format, args...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*outcome, error){
	"paper-sweep":   runPaperSweep,
	"atomics-sweep": runAtomicsSweep,
	"daemon-mix":    runDaemonMix,
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "paper-sweep", "workload: paper-sweep, atomics-sweep or daemon-mix")
	flag.Int64Var(&o.seed, "seed", DefaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", HeldOutSeed))
	flag.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.StringVar(&o.results, "results", "results", "directory of the committed figure CSVs")
	flag.StringVar(&o.spans, "spans", "", "traced runs write their spans here (default .bench_build/spans/<workload>-seed<seed>.json)")
	flag.Parse()

	if seconds < 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "atgpu-bench: -seconds must be >= 0 and -trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "atgpu-bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atgpu-bench:", err)
		os.Exit(1)
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atgpu-bench:", err)
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

// print writes the notes and then the result line.
func (o *outcome) print(f *os.File) error {
	w := bufio.NewWriter(f)
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

// newOutcome starts a result that is correct until a check fails.
func newOutcome(o options) *outcome {
	out := &outcome{Correct: true}
	out.note("workload=%s seed=%d seconds=%.0f trace=%v gomaxprocs=%d",
		o.workload, o.seed, o.seconds.Seconds(), o.trace, runtime.GOMAXPROCS(0))
	return out
}

// timeSetup runs setup setupReps times and returns the median duration
// and the value the last repetition built; release frees the others.
func timeSetup[T any](setup func() (T, error), release func(T)) (time.Duration, T, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		v, err := setup()
		d := time.Since(t0)
		if err != nil {
			return 0, last, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(d))
		if i < setupReps-1 && release != nil {
			release(v)
		}
		last = v
	}
	return time.Duration(median(times)), last, nil
}

// median returns the middle value (mean of the middle two for even
// lengths); 0 for none.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// resetPeakRSS returns freed heap to the OS and restarts the process's
// peak RSS from its current RSS, so peak_rss_mb covers the workload's load
// and not the set-up repetitions or the reference arm before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// totalAlloc returns the bytes allocated on the heap so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// endToEnd holds what every workload prints with -trace 0.
type endToEnd struct {
	setup      time.Duration
	batches    []float64 // seconds per batch
	jobs       []float64 // milliseconds per job
	jobsPerSec float64
	allocMB    float64 // per op
	// peakRSS is read before the reference samples that follow the load.
	peakRSS float64 // MB
	ref     hostRef
}

func (e endToEnd) fill(out *outcome) {
	k := e.ref.scale()
	out.set("setup_s", e.setup.Seconds()*k, "s")
	out.set("batch_s", median(e.batches)*k, "s")
	out.set("job_p50_ms", quantile(e.jobs, 0.50)*k, "ms")
	out.set("job_p99_ms", quantile(e.jobs, 0.99)*k, "ms")
	out.set("jobs_per_s", e.jobsPerSec/k, "1/s")
	out.set("alloc_mb_per_op", e.allocMB, "MB")
	out.set("peak_rss_mb", e.peakRSS, "MB")
	ratio := 0.0
	if out.Attempted > 0 {
		ratio = 1 - float64(out.Failed)/float64(out.Attempted)
	}
	out.set("success_ratio", ratio, "ratio")
	out.note("samples: batches=%d jobs=%d reference=%d", len(e.batches), len(e.jobs), len(e.ref.samples))
	out.note("host speed: reference median %.2fms (nominal %.0fms), scale %.4f", median(e.ref.samples)*1e3, refNominal.Seconds()*1e3, k)
	out.note("raw host time: setup_s=%.6f batch_s=%.6f job_p50_ms=%.4f job_p99_ms=%.4f jobs_per_s=%.4f",
		e.setup.Seconds(), median(e.batches), quantile(e.jobs, 0.5), quantile(e.jobs, 0.99), e.jobsPerSec)
	out.note("batch_s quartiles (raw): %.4f %.4f %.4f %.4f %.4f", quantile(e.batches, 0), quantile(e.batches, 0.25),
		quantile(e.batches, 0.5), quantile(e.batches, 0.75), quantile(e.batches, 1))
}
