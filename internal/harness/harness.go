// Package harness is the shared trial-execution pipeline for everything
// that runs simulations in bulk: the experiment suite, the public Run API
// and the benchmarks all funnel through it.
//
// The package exists to keep two properties in one audited place instead of
// re-implemented per experiment:
//
//   - Determinism. A run is a pure function of its seed even though trials
//     execute on a worker pool. The contract is split-then-fork: every draw
//     from a shared rng.Source happens in the sequential Setup phase, in
//     trial order, on the caller's goroutine; workers only touch sources
//     that were split off for them. Results are collected by trial index,
//     so the merge order is the submission order, never the completion
//     order.
//
//   - Clean failure. A trial error cancels remaining work, is reported
//     deterministically (the lowest-indexed failing trial wins, regardless
//     of scheduling), and never strands a worker goroutine: Run always
//     joins its pool before returning.
package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes fn(0) … fn(n-1) on a worker pool and waits for completion.
// Indexes are handed out in increasing order; after the first error,
// remaining indexes are skipped (in-flight calls still finish). The
// returned error is the one from the lowest failing index — deterministic
// because indexes are dispensed monotonically, so the lowest failing index
// is always dispatched before any later failure can trigger the skip.
// All workers have exited by the time Run returns.
//
// When a process-wide Instrument is installed (SetInstrument), every item
// additionally reports its queue delay and wall time; with none installed
// the pipeline never reads the wall clock.
func Run(n int, fn func(i int) error) error {
	return RunScratch(n, func(i int, _ *Scratch) error { return fn(i) })
}

// RunScratch is Run with a per-worker engine scratch: each worker goroutine
// creates one Scratch and hands it to every item it executes, so consecutive
// trials on the same worker reuse engine buffers instead of re-allocating
// them. The scratch never crosses goroutines and lives only for this call —
// the split-then-fork contract already gives each worker exclusive state, so
// reuse cannot perturb rng streams, trial order, or results (engines are
// byte-identical with or without scratch).
func RunScratch(n int, fn func(i int, sc *Scratch) error) error {
	if n <= 0 {
		return nil
	}
	fn = instrumented(n, fn)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		stop atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(Scratch) // worker-private; never escapes this goroutine
			for {
				// The stop check precedes the index grab so that every
				// dispensed index is executed: indexes are dispensed
				// monotonically, so the lowest failing index is dispensed
				// before whichever failure sets the flag, and its error is
				// always recorded.
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i, sc); err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Trials runs a two-phase trial pipeline: setup(trial) is called
// sequentially in trial order on the caller's goroutine — the only place a
// shared rng.Source may be consumed — and run(trial, job) executes the
// prepared jobs on a worker pool. Results are returned in trial order. On
// error the lowest-indexed failure is returned (from either phase; a setup
// error aborts before any worker starts).
//
// The pipeline holds each job only until its run returns, so memory the job
// owns (protocols, drift memos) can be collected while later trials still
// run, unless a result or the caller still references it.
func Trials[J, R any](trials int, setup func(trial int) (J, error), run func(trial int, job J) (R, error)) ([]R, error) {
	return TrialsScratch(trials, setup,
		func(trial int, job J, _ *Scratch) (R, error) { return run(trial, job) })
}

// TrialsScratch is Trials with the per-worker engine scratch threaded into
// the run phase (see RunScratch). Experiments whose run function calls an
// engine directly pass the scratch into the engine config; everything about
// ordering, determinism, error reporting and releasing each job once its
// run returns is identical to Trials.
func TrialsScratch[J, R any](trials int, setup func(trial int) (J, error), run func(trial int, job J, sc *Scratch) (R, error)) ([]R, error) {
	jobs := make([]J, trials)
	for trial := 0; trial < trials; trial++ {
		j, err := setup(trial)
		if err != nil {
			return nil, err
		}
		jobs[trial] = j
	}
	results := make([]R, trials)
	err := RunScratch(trials, func(i int, sc *Scratch) error {
		r, err := run(i, jobs[i], sc)
		var zero J
		jobs[i] = zero // drop the job now, not when the whole batch ends
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
