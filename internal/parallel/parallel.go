// Package parallel is the deterministic fan-out layer the experiment
// harness runs on. Every table and figure of the reproduction is built
// from independent cycle-level simulations (pairwise cells, per-mix
// evaluations, per-schedule symbios runs), and each of those simulations
// derives all of its randomness from per-item seeds (rng.Hash2 of the
// experiment seed and the item index) rather than from shared mutable
// state. Map and ForEach therefore parallelise them without changing a
// single output bit:
//
//   - results are written to the slot of the item that produced them, so
//     the returned slice is in input order at any worker count;
//   - the reported error is the one belonging to the lowest input index,
//     not the temporally first failure, so error behaviour is equally
//     independent of scheduling;
//   - no work item may share a mutable structure (machine, rng.Stream)
//     with another — the call sites draw any shared random sequences
//     before fanning out.
//
// Cancellation and deadlines ride on the context every call takes first: no
// new item is claimed once it is cancelled or its deadline passes, and work
// items that poll the same context abort mid-computation. An abort is
// never a root cause: a real item error outranks any context error, and a
// pure abort reports the context's error.
//
// The worker count defaults to GOMAXPROCS, may be overridden globally via
// SetDefaultWorkers (cmd/sosbench's -workers flag) or the SYMBIOS_WORKERS
// environment variable, and per call via Options.Workers. Workers=1
// degenerates to a plain serial loop over the items.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
)

// Options controls one fan-out call.
type Options struct {
	// Workers caps the number of concurrent goroutines. Zero means the
	// global default (SetDefaultWorkers, else SYMBIOS_WORKERS, else
	// GOMAXPROCS); negative is an error guarded by a panic, since it
	// indicates a harness bug rather than a runtime condition.
	Workers int
}

// PanicError is a worker panic re-raised on the calling goroutine, annotated
// with the input index of the item whose function panicked (the original
// stack is preserved in Stack).
type PanicError struct {
	// Index is the input index of the panicking item.
	Index int
	// Value is the value the worker passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic with its item index and original stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// defaultWorkers holds the process-wide override; zero means unset.
var defaultWorkers atomic.Int64

// SetDefaultWorkers fixes the process-wide default worker count; n <= 0
// restores the automatic default. It returns the previous override (zero
// when none was set) so tests can restore it.
func SetDefaultWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultWorkers.Swap(int64(n)))
}

// DefaultWorkers resolves the worker count used when Options.Workers is
// zero: the SetDefaultWorkers override, else SYMBIOS_WORKERS, else
// GOMAXPROCS.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	if s := os.Getenv("SYMBIOS_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// workers resolves o into a concrete worker count for n items.
func (o Options) workers(n int) int {
	w := o.Workers
	if w < 0 {
		panic("parallel: negative worker count")
	}
	if w == 0 {
		w = DefaultWorkers()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map applies fn to every item and returns the results in input order.
// fn receives the item's index and value; distinct items must not share
// mutable state. On error, Map returns the error of the lowest-indexed
// failing item (a deterministic choice at any worker count) and the
// result slice is invalid. Items dispatched after the first observed
// failure, or once ctx is done, are skipped, so an early error does not pay
// for the full sweep; items already in flight run to completion unless
// they poll ctx themselves.
func Map[T, R any](ctx context.Context, items []T, opts Options, fn func(i int, item T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	err := ForEach(ctx, items, opts, func(i int, item T) error {
		r, err := fn(i, item)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// isAbortError reports whether err is a context abort — a side effect of a
// cancellation or deadline — rather than a root-cause item failure.
func isAbortError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ForEach is Map without collected results: fn runs once per item, with
// the same ordering and error guarantees. A panic inside fn is recovered and
// re-raised on the caller as a *PanicError carrying the failing item's input
// index (the lowest-indexed panic when several workers panic); without the
// recovery a worker panic would kill the process with no indication of which
// item died.
func ForEach[T any](ctx context.Context, items []T, opts Options, fn func(i int, item T) error) error {
	n := len(items)
	if n == 0 {
		return nil
	}
	// finish folds the context into the fan-out's error: a real item error
	// wins outright; with none, an aborted context reports its own error, so
	// deadline-exceeded stays distinguishable when an item's abort error
	// races the deadline.
	finish := func(itemErr error) error {
		if ctxErr := ctx.Err(); ctxErr != nil && (itemErr == nil || isAbortError(itemErr)) {
			return ctxErr
		}
		return itemErr
	}
	// call runs one item, converting a panic into a *PanicError.
	call := func(i int) (err error, pe *PanicError) {
		defer func() {
			if v := recover(); v != nil {
				pe = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
			}
		}()
		return fn(i, items[i]), nil
	}
	w := opts.workers(n)
	if w == 1 {
		for i := range items {
			if ctx.Err() != nil {
				return finish(nil)
			}
			err, pe := call(i)
			if pe != nil {
				panic(pe)
			}
			if err != nil {
				return finish(err)
			}
		}
		return finish(nil)
	}

	var (
		next     atomic.Int64 // next item index to claim
		failed   atomic.Bool  // latch: stop claiming new items
		mu       sync.Mutex
		errIdx   = -1
		firstEr  error
		panicked *PanicError
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		// An abort error is a side effect of a cancellation, never the root
		// cause: any real error displaces a recorded abort error regardless
		// of index, and among errors of the same kind the lowest input index
		// wins, so the reported error stays deterministic.
		better := errIdx < 0
		if !better {
			haveAbort := isAbortError(firstEr)
			newAbort := isAbortError(err)
			better = (haveAbort && !newAbort) || (haveAbort == newAbort && i < errIdx)
		}
		if better {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				err, pe := call(i)
				if pe != nil {
					failed.Store(true)
					mu.Lock()
					if panicked == nil || pe.Index < panicked.Index {
						panicked = pe
					}
					mu.Unlock()
					return
				}
				if err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return finish(firstEr)
}
