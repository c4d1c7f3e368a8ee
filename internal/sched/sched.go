// Package sched is a bounded worker-pool scheduler for independent,
// bit-reproducible simulation runs. Every sweep point and every
// experiment in this repository is a self-contained discrete-event
// simulation (its own engine, fabric, and ranks), so runs may execute
// on any goroutine in any order — the only thing that must stay fixed
// is the order results are reported in. The scheduler therefore
// executes jobs on up to `workers` goroutines but collects results in
// submission (index) order, which keeps all downstream output
// byte-identical to a sequential run.
//
// Failure semantics: the first job error stops the intake — jobs not
// yet started are abandoned — while already-running jobs finish.
// Every error that did occur is aggregated (in index order) into the
// returned error. A panicking job is captured and reported as an
// error rather than tearing down the process.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stats records measurement-host (wall-clock) scheduling costs. They
// describe how fast the simulations were *regenerated*, never the
// simulated quantities themselves, and must not be mixed into
// simulation output (they vary run to run; simulation results do not).
type Stats struct {
	// Jobs is the number of submitted jobs.
	Jobs int
	// Started is how many jobs actually began (equals Jobs unless a
	// failure canceled the tail of the queue).
	Started int
	// Workers is the pool size used.
	Workers int
	// Wall is the end-to-end wall time of the whole batch.
	Wall time.Duration
	// JobWall holds the per-job wall time, indexed by job; zero for
	// jobs that were canceled before starting.
	JobWall []time.Duration
}

// Busy sums the per-job wall times: the serial cost the pool amortized.
func (s *Stats) Busy() time.Duration {
	var total time.Duration
	for _, d := range s.JobWall {
		total += d
	}
	return total
}

// Speedup is Busy/Wall: how much faster the batch ran than a
// sequential execution of the same jobs (1.0 on one worker).
func (s *Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 1
	}
	return float64(s.Busy()) / float64(s.Wall)
}

// Throughput is completed jobs per wall-clock second.
func (s *Stats) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Started) / s.Wall.Seconds()
}

func (s *Stats) String() string {
	return fmt.Sprintf("%d jobs on %d workers in %v (busy %v, %.2fx, %.1f jobs/s)",
		s.Jobs, s.Workers, s.Wall.Round(time.Microsecond), s.Busy().Round(time.Microsecond),
		s.Speedup(), s.Throughput())
}

// Run executes fn(i) for every i in [0, n) on up to `workers`
// goroutines. workers <= 0 selects runtime.GOMAXPROCS(0); the pool
// never exceeds n. On the first failure no further jobs are started;
// the aggregated error joins every job error in index order.
func Run(workers, n int, fn func(i int) error) (*Stats, error) {
	return run(workers, n, fn, nil)
}

// run is Run with an observer called once, on the failing job's
// worker, as soon as the first failure has stopped the intake.
func run(workers, n int, fn func(i int) error, stopped func()) (*Stats, error) {
	if n < 0 {
		return nil, fmt.Errorf("sched: negative job count %d", n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	stats := &Stats{Jobs: n, Workers: workers, JobWall: make([]time.Duration, n)}
	if n == 0 {
		return stats, nil
	}
	errs := make([]error, n)
	var (
		next    atomic.Int64
		started atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
	)
	begin := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				started.Add(1)
				t0 := time.Now()
				if err := runJob(i, fn); err != nil {
					errs[i] = err
					if !failed.Swap(true) && stopped != nil {
						stopped()
					}
				}
				stats.JobWall[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	stats.Wall = time.Since(begin)
	stats.Started = int(started.Load())
	var agg []error
	for _, err := range errs {
		if err != nil {
			agg = append(agg, err)
		}
	}
	return stats, errors.Join(agg...)
}

// runJob invokes one job, converting a panic into an error so a bad
// job cancels the batch instead of crashing the process.
func runJob(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: job %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// Map runs fn(i) for every i in [0, n) on up to `workers` goroutines
// and returns the results in submission order, so output built from
// the slice is byte-identical to a sequential run. Error and
// cancellation semantics are those of Run; on error the results of
// completed jobs are still returned (failed or canceled slots hold
// the zero value).
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, *Stats, error) {
	out := make([]T, n)
	stats, err := Run(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, stats, err
}
