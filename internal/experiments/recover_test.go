package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSweepRecoversPointPanic is the satellite acceptance for the shared
// scheduler: a panicking point goroutine must not crash the sweep (or the
// daemon hosting it) — it is recorded as a Failed point with the stack in
// its fault log, and every other point completes normally.
func TestSweepRecoversPointPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := newTestRunner(t)
		r.cfg.Workers = workers
		sizes := []int{64, 128, 256, 512}
		data, err := r.runSweep("panicky", sizes, func(idx, n int) (WorkloadPoint, error) {
			if idx == 1 {
				panic(fmt.Sprintf("synthetic point crash n=%d", n))
			}
			return WorkloadPoint{N: n, TotalTime: float64(n)}, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: runSweep: %v", workers, err)
		}
		if len(data.Points) != len(sizes) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(data.Points), len(sizes))
		}
		crashed := data.Points[1]
		if !crashed.Failed || !strings.Contains(crashed.Err, "synthetic point crash n=128") {
			t.Fatalf("workers=%d: crashed point = %+v, want Failed with panic message", workers, crashed)
		}
		if crashed.N != 128 {
			t.Errorf("workers=%d: crashed point N = %d, want 128", workers, crashed.N)
		}
		if len(crashed.FaultLog) == 0 || !strings.Contains(crashed.FaultLog[0], "panic stack:") ||
			!strings.Contains(crashed.FaultLog[0], "runSweep") {
			t.Errorf("workers=%d: fault log missing panic stack: %q", workers, crashed.FaultLog)
		}
		for _, i := range []int{0, 2, 3} {
			if data.Points[i].Failed || data.Points[i].TotalTime != float64(sizes[i]) {
				t.Errorf("workers=%d: point %d = %+v, want untouched success", workers, i, data.Points[i])
			}
		}
		if got := data.FailedPoints(); got != 1 {
			t.Errorf("workers=%d: FailedPoints = %d, want 1", workers, got)
		}
	}
}

// TestPipelineSweepRecoversPointPanic repeats the panic-isolation check on
// the pipelined sweep path.
func TestPipelineSweepRecoversPointPanic(t *testing.T) {
	r := newTestRunner(t)
	r.cfg.Workers = 2
	data, err := r.runPipelineSweep("panicky-pipe", []int{64, 128}, func(idx, n int) (PipelinePoint, error) {
		if idx == 0 {
			panic("pipe crash")
		}
		return PipelinePoint{N: n, SequentialTime: 1}, nil
	})
	if err != nil {
		t.Fatalf("runPipelineSweep: %v", err)
	}
	if !data.Points[0].Failed || !strings.Contains(data.Points[0].Err, "pipe crash") {
		t.Fatalf("point 0 = %+v, want Failed with panic message", data.Points[0])
	}
	if data.Points[1].Failed || data.Points[1].SequentialTime != 1 {
		t.Fatalf("point 1 = %+v, want success", data.Points[1])
	}
}

// TestSweepRealErrorsStillPropagate pins the boundary: panics are
// absorbed, but ordinary errors (configuration and programming mistakes)
// abort the sweep with the lowest-index occurrence, exactly as before the
// scheduler extraction.
func TestSweepRealErrorsStillPropagate(t *testing.T) {
	r := newTestRunner(t)
	r.cfg.Workers = 4
	boom := errors.New("boom")
	_, err := r.runSweep("erroring", []int{1, 2, 3, 4}, func(idx, n int) (WorkloadPoint, error) {
		if idx >= 2 {
			return WorkloadPoint{}, fmt.Errorf("point %d: %w", idx, boom)
		}
		return WorkloadPoint{N: n}, nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "point 2") {
		t.Fatalf("err = %v, want lowest-index real error", err)
	}
}

// TestSweepCancellationFlushesPartialData drives the SIGINT path: a
// context cancelled mid-sweep yields ErrCancelled plus partial data in
// which every unrun point is marked Failed/cancelled — nothing is lost,
// nothing is left unaccounted for. Points dispatch largest first, so the
// two largest complete and the two smallest never start.
func TestSweepCancellationFlushesPartialData(t *testing.T) {
	r := newTestRunner(t)
	r.cfg.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	r.cfg.Context = ctx
	sizes := []int{64, 128, 256, 512}
	data, err := r.runSweep("cancelly", sizes, func(idx, n int) (WorkloadPoint, error) {
		if idx == 2 {
			cancel() // points dispatched after this one must never start
		}
		return WorkloadPoint{N: n, TotalTime: 1}, nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if data == nil || len(data.Points) != len(sizes) {
		t.Fatalf("partial data missing: %+v", data)
	}
	for i, p := range data.Points {
		switch {
		case i >= 2:
			if p.Failed || p.TotalTime != 1 {
				t.Errorf("point %d = %+v, want completed", i, p)
			}
		default:
			if !p.Failed || !strings.Contains(p.Err, "cancelled") || p.N != sizes[i] {
				t.Errorf("point %d = %+v, want cancelled marker with N", i, p)
			}
		}
	}
}

// TestNewRunnerCalibrated verifies a runner built from a cached
// calibration behaves identically to a freshly calibrated one — the
// property atgpud's calibration cache depends on.
func TestNewRunnerCalibrated(t *testing.T) {
	cfg := testConfig()
	cfg.Sizes["vecadd"] = []int{1 << 10}
	fresh, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link, cal, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewRunnerCalibrated(cfg, link, cal)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CostParams() != cached.CostParams() {
		t.Fatalf("cost params diverge: %+v vs %+v", fresh.CostParams(), cached.CostParams())
	}
	a, err := fresh.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != 1 || len(b.Points) != 1 || !reflect.DeepEqual(a.Points[0], b.Points[0]) {
		t.Fatalf("sweep points diverge:\n%+v\nvs\n%+v", a.Points, b.Points)
	}

	if _, err := NewRunnerCalibrated(cfg, nil, cal); err == nil {
		t.Fatal("nil link accepted")
	}
}

// TestPredictPoint checks the model-only entry point agrees with the
// model-side fields of a full sweep point.
func TestPredictPoint(t *testing.T) {
	r := newTestRunner(t)
	pred, err := r.PredictPoint("vecadd", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if pred.N != 1<<10 || pred.ATGPUCost <= 0 || pred.SWGPUCost <= 0 {
		t.Fatalf("prediction = %+v", pred)
	}
	data, err := r.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	full := data.Points[0] // testConfig's first vecadd size is 1<<10
	if pred.ATGPUCost != full.ATGPUCost || pred.SWGPUCost != full.SWGPUCost ||
		pred.DeltaPredicted != full.DeltaPredicted {
		t.Fatalf("PredictPoint %+v disagrees with sweep point %+v", pred, full)
	}
	if _, err := r.PredictPoint("nope", 8); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := r.PredictPoint("vecadd", 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}
