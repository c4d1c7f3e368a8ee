package runtime

import (
	"sync"
	"time"
)

// Process-wide shard-utilization tally. Every completed World.Run
// folds its coupled engine's execution summary in here so a
// command-line binary can end with one stderr line proving the
// grouped (sharded) path actually executed — see
// cliflags.ReportShards. The tally never feeds back into simulation
// state, so stdout determinism is untouched; commands running many
// worlds concurrently (-jobs) serialize on the mutex only once per
// world.

// UsageSummary aggregates coupled-engine execution across every
// world the process has run.
type UsageSummary struct {
	// Worlds counts completed World.Run calls; Grouped counts the
	// subset whose fabric topology produced more than one node group
	// (the worlds that exercise the window protocol).
	Worlds  int
	Grouped int
	// Windows is the total conservative windows executed.
	Windows uint64
	// Dispatches is the total group-window dispatches: the sum over
	// windows of each window's active-group count (see
	// sim.CoupledEngine.Dispatches). Dispatches well below Windows ×
	// groups is the active-group filter skipping idle groups.
	Dispatches uint64
	// Events sums executed events by node-group index (ragged across
	// machines: index 0 aggregates every world's first group, and so
	// on up to the largest group count seen).
	Events []int64
	// MaxWorkers is the largest window worker parallelism used.
	MaxWorkers int
	// Busy is the summed per-group busy time inside windows; divided
	// by a command's wall time it gives the parallel-efficiency
	// figure (see sim.CoupledEngine.BusyWall).
	Busy time.Duration
	// ExecWall, BarrierWall and ScanWall attribute the window loops'
	// wall time to their three phases — group execution, barrier
	// deferred-op application, and window-bound maintenance (min-tree
	// reads plus active-set collection) — the engine-layer start of a
	// Breaking-Band-style cost breakdown (see
	// sim.CoupledEngine.PhaseWall).
	ExecWall    time.Duration
	BarrierWall time.Duration
	ScanWall    time.Duration
}

var (
	usageMu sync.Mutex
	usage   UsageSummary
)

// noteUsage folds one finished world into the process tally.
func noteUsage(w *World) {
	gs := w.GroupStats()
	usageMu.Lock()
	defer usageMu.Unlock()
	usage.Worlds++
	if len(gs) > 1 {
		usage.Grouped++
	}
	usage.Windows += w.Windows()
	usage.Dispatches += w.eng.Dispatches()
	for len(usage.Events) < len(gs) {
		usage.Events = append(usage.Events, 0)
	}
	for g, s := range gs {
		usage.Events[g] += s.Executed
		usage.Busy += s.Busy
	}
	if w.eng.Workers() > usage.MaxWorkers {
		usage.MaxWorkers = w.eng.Workers()
	}
	exec, barrier, scan := w.eng.PhaseWall()
	usage.ExecWall += exec
	usage.BarrierWall += barrier
	usage.ScanWall += scan
}

// Usage returns a copy of the process-wide shard-utilization tally.
func Usage() UsageSummary {
	usageMu.Lock()
	defer usageMu.Unlock()
	u := usage
	u.Events = append([]int64(nil), usage.Events...)
	return u
}
