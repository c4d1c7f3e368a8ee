package sim_test

// Tests for the coupled conservative-lookahead engine: construction
// validation, the deferred-op mailbox bound, the one-group delegation
// path, and the time-overflow guard. The heavyweight invariance property (identical
// digests at every worker count) is exercised end-to-end by
// internal/conformance's TestShardCountInvariant* suite.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"msgroofline/internal/sim"
	"msgroofline/internal/sim/simbench"
)

func TestCoupledConstructionErrors(t *testing.T) {
	if _, err := sim.NewCoupled(nil, sim.Microsecond, 1); err == nil {
		t.Error("empty groupOf should fail")
	}
	if _, err := sim.NewCoupled([]int{0, 2}, sim.Microsecond, 1); err == nil {
		t.Error("non-dense group ids should fail")
	}
	if _, err := sim.NewCoupled([]int{0, 1}, 0, 1); err == nil {
		t.Error("zero lookahead with two groups should fail")
	}
	ce, err := sim.NewCoupled([]int{0, 1, 0, 1}, sim.Microsecond, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Groups() != 2 {
		t.Fatalf("Groups = %d", ce.Groups())
	}
	if ce.Workers() != 2 {
		t.Fatalf("workers should clamp to the group count, got %d", ce.Workers())
	}
}

func TestCoupledMailboxCap(t *testing.T) {
	ce, err := sim.NewCoupled([]int{0, 1}, sim.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	ce.SetMailboxCap(4)
	ce.Sub(0).Spawn("burst", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			ce.Defer(0, p.Now(), func() {})
		}
	})
	err = ce.Run()
	if err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("want mailbox capacity error, got %v", err)
	}
}

func TestCoupledOneGroupDelegates(t *testing.T) {
	// A single node group needs no window protocol (and a linkless
	// topology has no lookahead): Run must delegate to the sub-engine
	// and still count one window.
	ce, err := sim.NewCoupled([]int{0, 0, 0}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ticks int
	ce.Sub(0).Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(sim.Microsecond)
			ticks++
		}
	})
	if err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d", ticks)
	}
	if ce.Windows() != 1 {
		t.Fatalf("one-group run should report 1 window, got %d", ce.Windows())
	}
	if ce.Elapsed() != 5*sim.Microsecond {
		t.Fatalf("elapsed = %v", ce.Elapsed())
	}
}

// poolScenario builds a 6-group world where groups 2 and 4 both
// misbehave (per bad, invoked at setup for each failing group) inside
// the first window while the other groups idle far in the future — so
// the window's active set is exactly {2, 4} and the engine must pick
// the surfaced failure by ascending group order, not completion order,
// at every worker count.
func poolScenario(t *testing.T, workers int, bad func(ce *sim.CoupledEngine, g int)) *sim.CoupledEngine {
	t.Helper()
	ce, err := sim.NewCoupled([]int{0, 1, 2, 3, 4, 5}, sim.Microsecond, workers)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 6; g++ {
		switch g {
		case 2, 4:
			bad(ce, g)
		default:
			ce.Sub(g).Spawn("quiet", func(p *sim.Proc) {
				p.Sleep(100 * sim.Microsecond)
			})
		}
	}
	return ce
}

// TestCoupledPoolErrorPropagation pins the worker-pool error contract:
// when several groups fail in one window, the surfaced error is the
// lowest-numbered failing group's, and the error string is identical
// at workers 1, 2, G, and G+1 (clamped to G).
func TestCoupledPoolErrorPropagation(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 6, 7} {
		ce := poolScenario(t, workers, func(ce *sim.CoupledEngine, g int) {
			ce.Sub(g).Spawn("bad", func(p *sim.Proc) {
				// Exceed the event limit inside the window; groups 2
				// and 4 trip it at different simulated times so their
				// error strings differ and ordering mistakes show.
				for i := 0; i < 100; i++ {
					p.Sleep(sim.Nanosecond * sim.Time(1+g))
				}
			})
		})
		ce.SetEventLimit(20)
		err := ce.Run()
		if err == nil {
			t.Fatalf("workers=%d: want event-limit error", workers)
		}
		if !strings.Contains(err.Error(), "event limit") {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error %q != workers=1 error %q", workers, err.Error(), want)
		}
	}
}

// TestCoupledPoolPanicPropagation pins the panic contract: a panic in
// an event closure executes on whichever pool worker dispatched it and
// must be re-raised on Run's goroutine; the chosen panic is the
// lowest-numbered panicking group's — identical at workers 1, 2, G,
// and G+1. (Panics in proc bodies are outside this contract: procs own
// their goroutines at every worker count.)
func TestCoupledPoolPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 2, 6, 7} {
		ce := poolScenario(t, workers, func(ce *sim.CoupledEngine, g int) {
			ce.Sub(g).At(sim.Microsecond, func() {
				panic(fmt.Sprintf("boom-%d", g))
			})
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			_ = ce.Run()
			return nil
		}()
		if got != "boom-2" {
			t.Fatalf("workers=%d: recovered %v, want boom-2", workers, got)
		}
	}
}

// TestCoupledActiveSkipReawaken drives a long two-group volley while a
// third group goes idle after one event, then re-awakens it with a
// barrier-delivered At. The idle group must not be dispatched while
// idle (Dispatches stays near one group per window), must wake exactly
// at the delivered time, and the event-order digest must not depend on
// the worker count.
func TestCoupledActiveSkipReawaken(t *testing.T) {
	const la = sim.Microsecond
	const rounds = 16
	run := func(workers int) (woke sim.Time, windows, dispatches uint64, digest uint64) {
		ce, err := sim.NewCoupled([]int{0, 1, 2}, la, workers)
		if err != nil {
			t.Fatal(err)
		}
		ce.Sub(2).Spawn("idler", func(p *sim.Proc) {
			p.Sleep(la) // one event, then the group has no work at all
		})
		var volley func(me, other, k int)
		volley = func(me, other, k int) {
			now := ce.Sub(me).Now()
			if k == rounds {
				ce.Defer(me, now, func() {
					ce.At(2, now+la, func() {
						woke = ce.Sub(2).Now()
					})
				})
				return
			}
			ce.Defer(me, now, func() {
				ce.At(other, now+la, func() { volley(other, me, k+1) })
			})
		}
		ce.Sub(0).Spawn("kick", func(p *sim.Proc) {
			p.Sleep(la)
			volley(0, 1, 0)
		})
		if err := ce.Run(); err != nil {
			t.Fatal(err)
		}
		return woke, ce.Windows(), ce.Dispatches(), ce.Digest()
	}

	woke1, win1, disp1, dig1 := run(1)
	if woke1 != sim.Time(rounds+2)*la {
		t.Fatalf("re-awakened at %v, want %v", woke1, sim.Time(rounds+2)*la)
	}
	if win1 < rounds {
		t.Fatalf("windows = %d, want >= %d (one per volley hop)", win1, rounds)
	}
	// The volley keeps exactly one group eligible per window (plus the
	// first window's extra starters); without active-group dispatch
	// this would be 3 per window.
	if disp1 > win1+3 {
		t.Fatalf("dispatches = %d over %d windows: idle groups were dispatched", disp1, win1)
	}
	for _, workers := range []int{2, 3} {
		woke, win, disp, dig := run(workers)
		if woke != woke1 || win != win1 || disp != disp1 || dig != dig1 {
			t.Fatalf("workers=%d: (woke,windows,dispatches,digest)=(%v,%d,%d,%x) != workers=1 (%v,%d,%d,%x)",
				workers, woke, win, disp, dig, woke1, win1, disp1, dig1)
		}
	}
}

// TestCoupledWindowsWorkerInvariance certifies the benchmark workload
// itself: the CoupledWindows token storm must execute the same event
// population in the same order (digest, count, elapsed) at every
// worker count.
func TestCoupledWindowsWorkerInvariance(t *testing.T) {
	ref := simbench.CoupledWindows(48, 1, 30000, 7)
	if ref.Executed() == 0 {
		t.Fatal("workload dispatched no events")
	}
	for _, workers := range []int{2, 4} {
		ce := simbench.CoupledWindows(48, workers, 30000, 7)
		if ce.Digest() != ref.Digest() || ce.Executed() != ref.Executed() || ce.Elapsed() != ref.Elapsed() {
			t.Fatalf("workers=%d: (digest,events,elapsed)=(%x,%d,%v) != workers=1 (%x,%d,%v)",
				workers, ce.Digest(), ce.Executed(), ce.Elapsed(),
				ref.Digest(), ref.Executed(), ref.Elapsed())
		}
	}
}

// TestCoupledTimeOverflowDegradesToGlobalWindow checks the horizon
// guard at the top of the time axis: when minNext + lookahead would
// overflow the signed 64-bit clock, the engine must degrade to one
// global window (w1 = maximum representable time) instead of wrapping
// negative, and still execute every event with worker-count-invariant
// digests.
func TestCoupledTimeOverflowDegradesToGlobalWindow(t *testing.T) {
	const n = 8
	top := sim.Time(math.MaxInt64)
	run := func(workers int) (uint64, uint64, uint64) {
		t.Helper()
		ce, err := sim.NewCoupled([]int{0, 1, 2, 3}, sim.Microsecond, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			// Every event sits within one lookahead of the clock maximum
			// (the maximum itself is the idle-group sentinel), so the
			// very first window triggers the overflow guard.
			ce.Sub(i%4).At(top-1-sim.Time(i), func() {})
		}
		if err := ce.Run(); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return ce.Executed(), ce.Windows(), ce.Digest()
	}
	exec1, win1, dig1 := run(1)
	exec4, win4, dig4 := run(4)
	if exec1 != n || exec4 != n {
		t.Fatalf("executed %d / %d events, want %d", exec1, exec4, n)
	}
	if win1 != 1 || win4 != 1 {
		t.Fatalf("ran %d / %d windows, want one global window", win1, win4)
	}
	if dig1 != dig4 {
		t.Fatalf("degraded-window digest differs: %016x != %016x", dig1, dig4)
	}
}
