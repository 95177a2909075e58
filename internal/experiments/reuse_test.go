package experiments

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"atgpu/internal/mem"
)

// reuseSizes are ladders dense enough (neighbouring sizes at most 2×
// apart) that a sweep hands its buffers from point to point, with more
// points than workers so reuse engages at every worker count tested.
var reuseSizes = map[string][]int{
	"vecadd":         {1024, 1536, 2048, 3072, 4096},
	"reduce":         {1024, 1536, 2048, 3072, 4096},
	"matmul":         {32, 64, 96, 128},
	"scan":           {1024, 1536, 2048, 3072, 4096},
	"histogram":      {256, 384, 512, 768, 1024},
	"histogram-priv": {256, 384, 512, 768, 1024},
	"compact":        {256, 384, 512, 768, 1024},
	"topk":           {256, 384, 512, 768, 1024},
	"montecarlo":     {64, 96, 128, 192, 256},
}

// TestSweepReuseMatchesFreshPoints: every point of a multi-point sweep,
// which runs on device memory and input buffers handed on from earlier
// points, equals the same point run on fresh ones, for every registered
// workload, fault-free and under injection (where corrupted transfers
// leave dirty device memory behind), at 1, 2 and 4 workers.
//
// A point's inputs and fault seeds derive from its index, so the fresh
// reference for point k is point k of the sweep over the first k+1 sizes:
// the ladder ascends, so that sweep dispatches point k first, on a new
// workspace.
func TestSweepReuseMatchesFreshPoints(t *testing.T) {
	for _, base := range []struct {
		name string
		cfg  Config
	}{{"fault-free", testConfig()}, {"faulted", faultedConfig()}} {
		link, cal, err := Calibrate(base.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweep := func(workload string, sizes []int, workers int) *WorkloadData {
			t.Helper()
			cfg := base.cfg
			cfg.Sizes = map[string][]int{workload: sizes}
			cfg.Workers = workers
			r, err := NewRunnerCalibrated(cfg, link, cal)
			if err != nil {
				t.Fatal(err)
			}
			data, err := r.Sweep(workload)
			if err != nil {
				t.Fatalf("%s %s %v workers=%d: %v", base.name, workload, sizes, workers, err)
			}
			return data
		}
		for _, w := range Workloads() {
			sizes, ok := reuseSizes[w.Name]
			if !ok {
				t.Fatalf("no reuse ladder for workload %s", w.Name)
			}
			if !slices.IsSorted(sizes) || len(slices.Compact(slices.Clone(sizes))) != len(sizes) {
				t.Fatalf("%s reuse ladder %v must strictly ascend", w.Name, sizes)
			}
			fresh := make([]WorkloadPoint, len(sizes))
			for k := range sizes {
				fresh[k] = sweep(w.Name, sizes[:k+1], 1).Points[k]
			}
			for _, workers := range []int{1, 2, 4} {
				data := sweep(w.Name, sizes, workers)
				for k, pt := range data.Points {
					if !reflect.DeepEqual(pt, fresh[k]) {
						t.Errorf("%s %s workers=%d n=%d: reused point differs from a fresh run:\n%+v\nvs\n%+v",
							base.name, w.Name, workers, sizes[k], pt, fresh[k])
					}
				}
			}
		}
	}
}

// startOrder records the order sweep points start in.
type startOrder struct {
	mu      sync.Mutex
	indices []int
}

func (o *startOrder) JobStart(index, _ int) {
	o.mu.Lock()
	o.indices = append(o.indices, index)
	o.mu.Unlock()
}

func (o *startOrder) JobDone(int, int, error) {}

// TestSweepDispatchOrder: points dispatch largest first, stable among
// equal sizes, yet unsorted and duplicate Config.Sizes come back in the
// order given, with records byte-identical across worker counts.
func TestSweepDispatchOrder(t *testing.T) {
	sizes := []int{2048, 1024, 4096, 1024, 2048, 3072}
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		cfg := testConfig()
		cfg.Sizes = map[string][]int{"vecadd": sizes}
		cfg.Workers = workers
		order := &startOrder{}
		cfg.SchedObserver = order
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := r.RunVecAdd()
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			if got := fmt.Sprint(order.indices); got != "[2 5 0 4 1 3]" {
				t.Errorf("dispatch order %s, want largest first and stable: [2 5 0 4 1 3]", got)
			}
		}
		for i, p := range data.Points {
			if p.N != sizes[i] || data.Records[i].N != sizes[i] {
				t.Errorf("workers=%d: point %d has N=%d (record N=%d), want %d", workers, i, p.N, data.Records[i].N, sizes[i])
			}
		}
		got, err := json.Marshal(data.Records)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("workers=%d: records differ from workers=1", workers)
		}
	}
}

// TestSweepReusesBuffers: a sequential default vecadd sweep allocates
// less in total than its points' device memory and inputs add up to, which
// it could not do if every point allocated its own. The bound is a count
// of bytes, not a timing, so it holds on any host.
func TestSweepReusesBuffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Lookup("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := cfg.SweepSizes("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	b := cfg.Device.WarpWidth
	words := 0
	for _, n := range sizes {
		words += w.Footprint(n, b) + 4*b + 2*n // device memory with its slack, two operands
	}
	bound := uint64(words) * 8

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := r.RunVecAdd(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("sweep allocated %d bytes, want less than its points' %d bytes of device memory and inputs", got, bound)
	}
}

// TestNewHostRecyclesHalfFilledBuffers: a host lays its device memory over
// a recycled array, cleared, only when it fills at least half of it; a
// point too large or too small for the array gets a fresh one, so a small
// point never keeps a large array alive.
func TestNewHostRecyclesHalfFilledBuffers(t *testing.T) {
	r := newTestRunner(t)
	slack := 4 * r.Config().Device.WarpWidth
	const words = 4096
	for _, tc := range []struct {
		footprint int
		recycled  bool
	}{
		{words - slack, true},
		{words/2 - slack, true},
		{words/2 - slack - 1, false},
		{words - slack + 1, false},
	} {
		buf := make([]mem.Word, words)
		for i := range buf {
			buf[i] = -1
		}
		h, err := r.NewHost(tc.footprint, 0, buf...)
		if err != nil {
			t.Fatal(err)
		}
		raw := h.Device().Global().Raw()
		if len(raw) != tc.footprint+slack {
			t.Fatalf("footprint %d: device holds %d words, want %d", tc.footprint, len(raw), tc.footprint+slack)
		}
		if recycled := &raw[0] == &buf[0]; recycled != tc.recycled {
			t.Errorf("footprint %d of a %d-word array: recycled = %v, want %v", tc.footprint, words, recycled, tc.recycled)
		}
		if slices.ContainsFunc(raw, func(v mem.Word) bool { return v != 0 }) {
			t.Errorf("footprint %d: device memory not cleared", tc.footprint)
		}
	}
}
