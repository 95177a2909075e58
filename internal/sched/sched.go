// Package sched is the repo's shared work scheduler: a bounded pool that
// runs independent, indexed jobs with panic isolation and cooperative
// cancellation. It is the common core extracted from the experiments
// worker pool (PR 2) and reused by the atgpud service workers — one
// place where the "a crashing job must not crash the process" and "a
// cancelled batch must report exactly which indices never ran" contracts
// live.
//
// Determinism contract: Run dispatches indices 0..n-1 in order (or in
// the fixed order Options.Order gives) and the caller assembles results
// by index, so batch output is independent of
// the worker count and of goroutine scheduling (provided each job is
// self-contained, as the experiments points are). Cancellation is the
// only scheduling-dependent outcome: which indices were already
// dispatched when the context fired depends on timing, which is exactly
// what the caller wants to know when flushing partial results.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// ErrCancelled marks an index whose job was never started because the
// batch context was done before it could be dispatched. Jobs already
// running when the context fires run to completion (jobs that want
// finer-grained cancellation watch the context themselves).
var ErrCancelled = errors.New("sched: cancelled before start")

// PanicError is a panic recovered from a job, converted into an ordinary
// error so one crashing job cannot take down the batch (or the daemon
// running it). Value is the recovered value; Stack is the panicking
// goroutine's stack captured at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is available separately so
// callers can attach it to logs or manifests without megabyte errors.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Protect runs fn, converting a panic into a *PanicError. Every goroutine
// this package (and internal/service) launches runs its work through
// Protect or an equivalent inline recover — enforced by the atgpu-vet
// gorecover pass.
func Protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Observer receives scheduling lifecycle callbacks, mirroring
// timeline.SetObserver: synchronous, invoked from the goroutine running
// the job, and expected to be cheap (a counter bump, a channel send the
// observer owns). Implementations must be safe for concurrent use —
// with workers > 1, callbacks for different indices arrive
// concurrently. The atgpud telemetry plane uses this to expose live
// worker-pool gauges without the pool knowing anything about metrics.
type Observer interface {
	// JobStart fires just before fn(index) runs on the given worker
	// (workers are numbered 0..workers-1; the sequential path is
	// worker 0).
	JobStart(index, worker int)
	// JobDone fires after fn(index) returns (err as Run would report
	// it, including *PanicError). Indices cancelled before dispatch
	// report JobDone with worker -1 and no preceding JobStart.
	JobDone(index, worker int, err error)
}

// Options configures a batch run.
type Options struct {
	// Workers is the pool size; <= 1 runs sequentially on the calling
	// goroutine.
	Workers int
	// Observer, when non-nil, receives JobStart/JobDone callbacks.
	Observer Observer
	// Order, when non-nil, is the permutation of 0..n-1 to dispatch the
	// jobs in; nil dispatches them in index order. Error slots and
	// observer callbacks carry the job's index either way.
	Order []int
}

// Run executes fn(0) … fn(n-1) on up to workers goroutines and returns
// one error slot per index: nil on success, the job's own error, a
// *PanicError if the job panicked, or ErrCancelled if the context was
// done before the index was dispatched.
//
// workers <= 1 runs the jobs sequentially on the calling goroutine
// (still panic-isolated and cancellable between jobs), so a sequential
// batch behaves identically to a parallel one — the property the sweep
// determinism tests pin.
func Run(ctx context.Context, n, workers int, fn func(i int) error) []error {
	return RunOpts(ctx, n, Options{Workers: workers}, fn)
}

// RunOpts is Run with an options struct, the form that carries the
// observer hook. Observer callbacks never change scheduling or results:
// a batch observed and a batch unobserved dispatch identically.
func RunOpts(ctx context.Context, n int, opts Options, fn func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if ctx == nil {
		ctx = context.Background()
	}
	obs := opts.Observer
	cancelled := func(i int) {
		errs[i] = fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
		if obs != nil {
			obs.JobDone(i, -1, errs[i])
		}
	}
	at := func(k int) int { return k }
	if opts.Order != nil {
		at = func(k int) int { return opts.Order[k] }
	}
	workers := opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			i := at(k)
			if ctx.Err() != nil {
				cancelled(i)
				continue
			}
			if obs != nil {
				obs.JobStart(i, 0)
			}
			errs[i] = Protect(func() error { return fn(i) })
			if obs != nil {
				obs.JobDone(i, 0, errs[i])
			}
		}
		return errs
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		w := w
		go func() {
			defer wg.Done()
			for i := range jobs {
				i := i
				if obs != nil {
					obs.JobStart(i, w)
				}
				// Protect recovers job panics into errs[i]; the worker
				// goroutine itself therefore cannot die mid-batch.
				errs[i] = Protect(func() error { return fn(i) })
				if obs != nil {
					obs.JobDone(i, w, errs[i])
				}
			}
		}()
	}
	k := 0
dispatch:
	for ; k < n; k++ {
		select {
		case jobs <- at(k):
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	for ; k < n; k++ {
		cancelled(at(k))
	}
	wg.Wait()
	return errs
}
