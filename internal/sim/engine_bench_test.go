package sim_test

// Engine hot-path microbenchmarks over the canonical simbench
// workloads. Each benchmark sizes the workload by b.N, so ns/op and
// allocs/op are per simulated iteration; ns/event (reported metric)
// divides wall time by the number of dispatched events.
//
// CI gate: BenchmarkEngineSleepSignal, BenchmarkEngineSleepYield and
// BenchmarkEngineCoupledWindows must report 0 allocs/op at steady
// state (see .github/workflows/ci.yml and the acceptance criteria in
// DESIGN.md §7 and §14).

import (
	"fmt"
	"testing"

	"msgroofline/internal/sim"
	"msgroofline/internal/sim/simbench"
)

func reportPerEvent(b *testing.B, e *sim.Engine) {
	b.Helper()
	if ev := e.Executed(); ev > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ev), "ns/event")
	}
}

// BenchmarkEngineSleepSignal is the steady-state Sleep/Signal
// ping-pong: the zero-allocation acceptance benchmark.
func BenchmarkEngineSleepSignal(b *testing.B) {
	b.ReportAllocs()
	e := simbench.PingPong(b.N)
	reportPerEvent(b, e)
}

// BenchmarkEngineSleepYield measures the Sleep(0) same-timestamp
// fast path (now-queue / self-handoff).
func BenchmarkEngineSleepYield(b *testing.B) {
	b.ReportAllocs()
	e := simbench.SleepYield(b.N)
	reportPerEvent(b, e)
}

// BenchmarkEngineTimerChurn measures the time-ordered heap path with
// 64 processes sleeping pseudorandom durations.
func BenchmarkEngineTimerChurn(b *testing.B) {
	b.ReportAllocs()
	n := b.N/64 + 1
	e := simbench.TimerChurn(64, n)
	reportPerEvent(b, e)
}

// BenchmarkEngineCoupledWindows measures the coupled engine's window
// loop on the prepared-closure token storm (64 single-rank groups) at
// 1, 2, and 4 workers. Steady state must stay at 0 allocs/op — the
// dispatch path (persistent pool, active-set collection, min-tree
// maintenance) and the barrier (pooled runs, k-way merge) reuse all
// storage across windows; ci.yml gates on it. On single-core runners
// compare the busy_wall TestRecordBench records instead of ns/event.
func BenchmarkEngineCoupledWindows(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			ce := simbench.CoupledWindows(64, workers, b.N, 1)
			if ev := ce.Executed(); ev > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ev), "ns/event")
			}
		})
	}
}

// BenchmarkEngineBroadcast measures fan-out wakeups: 32 waiters woken
// together per round.
func BenchmarkEngineBroadcast(b *testing.B) {
	b.ReportAllocs()
	n := b.N/32 + 1
	e := simbench.Broadcast(32, n)
	reportPerEvent(b, e)
}
