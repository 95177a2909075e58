package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAllSucceed(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var ran atomic.Int64
		errs := Run(context.Background(), 10, workers, func(i int) error {
			ran.Add(1)
			return nil
		})
		if got := ran.Load(); got != 10 {
			t.Fatalf("workers=%d: ran %d jobs, want 10", workers, got)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d: errs[%d] = %v, want nil", workers, i, err)
			}
		}
	}
}

func TestRunErrorsStayPerIndex(t *testing.T) {
	errs := Run(context.Background(), 6, 3, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	for i, err := range errs {
		if i%2 == 1 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("job %d", i))) {
			t.Errorf("errs[%d] = %v, want job error", i, err)
		}
		if i%2 == 0 && err != nil {
			t.Errorf("errs[%d] = %v, want nil", i, err)
		}
	}
}

func TestRunRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		errs := Run(context.Background(), 4, workers, func(i int) error {
			if i == 2 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(errs[2], &pe) {
			t.Fatalf("workers=%d: errs[2] = %v, want *PanicError", workers, errs[2])
		}
		if pe.Value != "boom" || !strings.Contains(string(pe.Stack), "sched") {
			t.Errorf("workers=%d: panic value %v stack %d bytes", workers, pe.Value, len(pe.Stack))
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Errorf("Error() = %q", pe.Error())
		}
		for _, i := range []int{0, 1, 3} {
			if errs[i] != nil {
				t.Errorf("workers=%d: errs[%d] = %v, want nil (other jobs unaffected)", workers, i, errs[i])
			}
		}
	}
}

func TestRunCancellationMarksUndispatched(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, 64)
		errs := Run(ctx, 64, workers, func(i int) error {
			started <- struct{}{}
			if i == 0 {
				cancel()
			}
			// Give the dispatcher time to observe the cancellation so at
			// least the tail of the batch is never dispatched.
			time.Sleep(time.Millisecond)
			return nil
		})
		cancelled := 0
		for _, err := range errs {
			if errors.Is(err, ErrCancelled) {
				cancelled++
			} else if err != nil {
				t.Fatalf("workers=%d: unexpected error %v", workers, err)
			}
		}
		if cancelled == 0 {
			t.Errorf("workers=%d: no index marked ErrCancelled after cancel", workers)
		}
		if got := len(started); got+cancelled != 64 {
			t.Errorf("workers=%d: started %d + cancelled %d != 64", workers, got, cancelled)
		}
	}
}

func TestProtect(t *testing.T) {
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatalf("Protect(nil-returning) = %v", err)
	}
	want := errors.New("plain")
	if err := Protect(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("Protect(plain error) = %v", err)
	}
	err := Protect(func() error { panic(42) })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != 42 {
		t.Fatalf("Protect(panic) = %v", err)
	}
}

func TestRunZeroJobs(t *testing.T) {
	if errs := Run(context.Background(), 0, 4, func(int) error { panic("unreachable") }); len(errs) != 0 {
		t.Fatalf("len(errs) = %d, want 0", len(errs))
	}
}

func TestRunNilContext(t *testing.T) {
	var ctx context.Context // nil: Run must substitute Background
	errs := Run(ctx, 3, 2, func(i int) error { return nil })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("errs[%d] = %v", i, err)
		}
	}
}

// TestRunOrder: Options.Order sets the dispatch order, while error slots
// and observer callbacks keep each job's own index, and a cancellation
// marks exactly the jobs the order had not reached.
func TestRunOrder(t *testing.T) {
	order := []int{3, 0, 2, 1}
	ctx, cancel := context.WithCancel(context.Background())
	o := newRecordingObserver()
	var ran []int
	errs := RunOpts(ctx, len(order), Options{Workers: 1, Observer: o, Order: order}, func(i int) error {
		ran = append(ran, i)
		if i == 0 {
			cancel()
		}
		return fmt.Errorf("job %d", i)
	})
	if fmt.Sprint(ran) != "[3 0]" {
		t.Fatalf("ran %v, want [3 0]", ran)
	}
	for i, err := range errs {
		switch i {
		case 0, 3:
			if err == nil || err.Error() != fmt.Sprintf("job %d", i) {
				t.Errorf("slot %d = %v, want its own job's error", i, err)
			}
			if w, ok := o.started[i]; !ok || w != 0 {
				t.Errorf("job %d: JobStart worker %d (reported %v), want 0", i, w, ok)
			}
		default:
			if !errors.Is(err, ErrCancelled) || o.doneW[i] != -1 {
				t.Errorf("slot %d = %v on worker %d, want cancelled before start", i, err, o.doneW[i])
			}
		}
	}
}
