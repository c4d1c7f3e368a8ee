package sim

// Coupled conservative-lookahead engine (DESIGN.md §11, scaling
// internals §14).
//
// CoupledEngine is the one parallel engine: it runs the
// process-coupled stacks (internal/runtime and the mpi/shmem/comm
// layers above it) under a YAWNS-style conservative-window protocol,
// with sequential Engines as the substrate so blocking procs,
// condition variables and arbitrary event closures keep working
// unchanged. Ranks are grouped by fabric node (same node ⟺ stateless
// shared-memory delivery), each group owns a private Engine, and every
// window executes each group's events in [minNext, minNext+lookahead)
// — in parallel across up to `workers` persistent pool workers —
// before a single-threaded barrier applies the window's deferred
// cross-group operations.
//
// The window loop is built to scale to thousands of mostly-idle
// groups (a 10K-rank dragonfly decomposes into 1024 node groups, of
// which only a few dozen are typically eligible per window):
//
//   - a persistent worker pool (startPool) replaces the historical
//     goroutine-per-group-per-window spawns: long-lived workers pull
//     group indices from an atomic cursor over the window's active
//     set, so a window costs O(workers) channel operations however
//     many groups exist;
//   - active-group dispatch: only groups whose next event beats the
//     window bound are dispatched; idle groups skip the dispatch, the
//     clock reads, and the deferred-op scan entirely;
//   - an incremental 4-ary tournament tree (mintree.go) over per-group
//     NextAt values replaces the O(G) min scan per window — only
//     groups that executed or received barrier ops re-publish;
//   - the barrier is a k-way merge over per-group deferred-op runs
//     that the (parallel) workers pre-sorted, instead of a full
//     single-threaded sort of the concatenated batch, with all run
//     and merge storage pooled across windows.
//
// Cross-group effects never mutate a peer group's state mid-window.
// They are expressed one of two ways:
//
//   - direct scheduling (At) of an event on the target group's engine
//     at a timestamp provably at least `lookahead` past the sender's
//     clock (pure-latency flights: same-window scheduling is safe
//     because the window bound guarantees the target has not executed
//     that far);
//   - deferred operations (Defer) for anything that must serialize
//     through shared state — link-bandwidth reservations, fault
//     draws, atomic-unit arbitration. Deferred ops carry the key
//     (at, senderRank<<counterBits|senderCounter) drawn from the
//     originating rank's monotone counter, and the barrier applies
//     them in that total order. Because a rank's emissions depend
//     only on its own executed prefix, the order — and therefore
//     every simulated output — is invariant under the worker count,
//     certified by the per-group event-order digests.
//
// A one-group world (every rank on one fabric node) delegates Run to
// the lone Engine verbatim, preserving exact sequential semantics
// including deadlock reporting.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

const (
	// counterBits is the per-rank deferred-op counter width inside an
	// ordering key; the rank id occupies the bits above it.
	counterBits = 40
	counterMask = (1 << counterBits) - 1
	// maxShardRanks bounds the rank id so rank<<counterBits cannot
	// overflow the 64-bit key.
	maxShardRanks = 1 << (64 - counterBits)

	timeMax = Time(math.MaxInt64)

	// DefaultMailboxCap bounds each group's deferred-op mailbox: the
	// number of cross-group ops one group may emit within a single
	// window. Exceeding it is a hard error (raise with SetMailboxCap),
	// keeping worst-case memory proportional to groups × cap instead
	// of unbounded.
	DefaultMailboxCap = 1 << 20

	// fnvOffsetBasis seeds every event-order digest (FNV-1a offset
	// basis).
	fnvOffsetBasis uint64 = 1469598103934665603
)

// mixDigest folds one word into an order-sensitive digest (FNV-style:
// xor then multiply by the 64-bit FNV prime).
func mixDigest(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// GroupStats is one node group's execution summary.
type GroupStats struct {
	// Ranks is the number of ranks placed in the group.
	Ranks int
	// Executed is the number of events the group dispatched.
	Executed int64
	// Busy is the wall-clock time spent executing the group's events
	// (excluding barrier waits). On a single-core runner the sum of
	// Busy over groups approaches the total wall time; on a
	// multi-core runner wall time approaches max(Busy).
	Busy time.Duration
}

// deferredOp is one cross-group operation awaiting the window barrier.
type deferredOp struct {
	at  Time
	key uint64
	run func()
}

// CoupledEngine couples per-node-group sequential Engines under
// conservative windows. Construct with NewCoupled, spawn processes on
// the group engines (EngineOf), then Run exactly once.
type CoupledEngine struct {
	subs      []*Engine
	groupOf   []int32
	nranks    []int // ranks per group
	lookahead Time
	workers   int

	counter []uint64       // per-rank deferred-op stream counters
	ops     [][]deferredOp // per-group deferred ops this window (front buffer)
	opsBack [][]deferredOp // per-group back buffer, swapped in by takeRun
	gerr    []error        // first group-confined error (Defer/At misuse)
	mcap    int
	maxEv   uint64

	windows    uint64
	dispatches uint64 // total group-window dispatches (sum of active-set sizes)
	busy       []time.Duration
	// loopBusy is the whole-loop busy time of an inline (workers <= 1)
	// run, measured once instead of per group per window; GroupStats
	// and BusyWall fold it back in, attributed by executed events.
	loopBusy time.Duration
	// Per-phase wall attribution of the window loop (PhaseWall):
	// group execution, barrier deferred-op application, and
	// min-tracker maintenance (bound computation + active-set
	// collection + horizon refresh).
	execWall    time.Duration
	barrierWall time.Duration
	scanWall    time.Duration

	tree   minTree // per-group NextAt horizons
	active []int32 // groups dispatched in the current window, ascending

	// Barrier state. inBarrier is true only while the single-threaded
	// merge executes deferred ops; At uses it to publish new horizons
	// incrementally and Defer to record follow-up candidates (bops).
	inBarrier bool
	bops      []int32
	bscratch  []int32

	// Merge scratch, reused across windows.
	runs     [][]deferredOp
	mergePos []int32
	mergeHp  []mergeEnt

	// Persistent worker pool (workers > 1). w1 and active are
	// published before the start tokens are sent and read back after
	// the done tokens arrive, so the channel handshake orders every
	// access. cursor hands out indices into active.
	w1      Time
	cursor  atomic.Int64
	wstart  []chan struct{}
	wdone   chan struct{}
	werrs   []error
	wpanics []any

	started bool
}

// NewCoupled builds a coupled engine for ranks placed into node
// groups by groupOf (group ids must be dense, 0-based). lookahead is
// the minimum cross-group event delay (the fabric's minimum link
// latency) and must be positive when more than one group exists.
// workers caps how many groups execute concurrently inside one
// window; 1 (or less) runs windows inline on the caller's goroutine.
// The window and event structure is identical at every worker count.
func NewCoupled(groupOf []int, lookahead Time, workers int) (*CoupledEngine, error) {
	if len(groupOf) == 0 {
		return nil, errors.New("sim: coupled engine needs >= 1 rank")
	}
	if len(groupOf) >= maxShardRanks {
		return nil, fmt.Errorf("sim: coupled engine supports < %d ranks, got %d", maxShardRanks, len(groupOf))
	}
	groups := 0
	for _, g := range groupOf {
		if g < 0 {
			return nil, fmt.Errorf("sim: negative group id %d", g)
		}
		if g+1 > groups {
			groups = g + 1
		}
	}
	if lookahead <= 0 && groups > 1 {
		return nil, fmt.Errorf("sim: %d coupled groups need positive lookahead, got %v", groups, lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > groups {
		workers = groups
	}
	ce := &CoupledEngine{
		groupOf:   make([]int32, len(groupOf)),
		nranks:    make([]int, groups),
		lookahead: lookahead,
		workers:   workers,
		counter:   make([]uint64, len(groupOf)),
		ops:       make([][]deferredOp, groups),
		opsBack:   make([][]deferredOp, groups),
		gerr:      make([]error, groups),
		mcap:      DefaultMailboxCap,
		busy:      make([]time.Duration, groups),
	}
	for r, g := range groupOf {
		ce.groupOf[r] = int32(g)
		ce.nranks[g]++
	}
	for g, n := range ce.nranks {
		if n == 0 {
			return nil, fmt.Errorf("sim: coupled group ids must be dense, group %d has no ranks", g)
		}
	}
	for g := 0; g < groups; g++ {
		ce.subs = append(ce.subs, NewEngine())
	}
	return ce, nil
}

// Groups returns the node-group (sub-engine) count.
func (ce *CoupledEngine) Groups() int { return len(ce.subs) }

// Workers returns the window worker-parallelism (clamped to Groups).
func (ce *CoupledEngine) Workers() int { return ce.workers }

// Lookahead returns the conservative window bound.
func (ce *CoupledEngine) Lookahead() Time { return ce.lookahead }

// GroupOf returns the node group owning a rank.
func (ce *CoupledEngine) GroupOf(rank int) int { return int(ce.groupOf[rank]) }

// EngineOf returns the sequential engine owning a rank's events and
// processes. All of the rank's conds and spawns must bind to it.
func (ce *CoupledEngine) EngineOf(rank int) *Engine { return ce.subs[ce.groupOf[rank]] }

// Sub returns the engine of node group g (group order is the digest
// fold order).
func (ce *CoupledEngine) Sub(g int) *Engine { return ce.subs[g] }

// SetMailboxCap bounds each group's deferred-op mailbox to n ops per
// window (default DefaultMailboxCap). Exceeding the bound aborts the
// run with an error rather than growing without limit.
func (ce *CoupledEngine) SetMailboxCap(n int) {
	if n < 1 {
		panic(fmt.Sprintf("sim: mailbox cap must be >= 1, got %d", n))
	}
	ce.mcap = n
}

// SetEventLimit installs a safety cap on total dispatched events
// across all groups (checked at window barriers, and per group inside
// a window so a zero-delay loop cannot stall a window forever). Zero
// means no limit.
func (ce *CoupledEngine) SetEventLimit(n uint64) {
	ce.maxEv = n
	for _, sub := range ce.subs {
		sub.SetEventLimit(n)
	}
}

// SetPerturbation installs schedule fuzzing on every group engine,
// giving group g decision stream g. Must be called before any process
// is spawned or event scheduled.
func (ce *CoupledEngine) SetPerturbation(p *Perturbation) {
	for g, sub := range ce.subs {
		sub.setPerturbationStream(p, g)
	}
}

// Defer enqueues a cross-group operation on behalf of rank, to be
// applied at the current window's barrier. Ops are applied
// single-threaded in (at, senderRank<<counterBits|senderCounter)
// order, giving shared-state mutations (link reservations, atomic
// arbitration, fault draws) one explicit serialization point whose
// order is invariant under the worker count. Defer may only be called
// from the rank's own engine context (or from the barrier itself).
func (ce *CoupledEngine) Defer(rank int, at Time, run func()) {
	g := ce.groupOf[rank]
	c := ce.counter[rank]
	if c > counterMask {
		panic(fmt.Sprintf("sim: rank %d exhausted its %d-bit deferred-op counter", rank, counterBits))
	}
	ce.counter[rank] = c + 1
	if len(ce.ops[g]) >= ce.mcap {
		if ce.gerr[g] == nil {
			ce.gerr[g] = fmt.Errorf("sim: coupled mailbox group %d over capacity %d (raise SetMailboxCap)",
				g, ce.mcap)
		}
		return
	}
	if ce.inBarrier {
		// A barrier-emitted follow-up: record the group so the next
		// merge round can find its run without scanning all groups.
		ce.bops = append(ce.bops, g)
	}
	ce.ops[g] = append(ce.ops[g], deferredOp{at: at, key: uint64(rank)<<counterBits | c, run: run})
}

// At schedules fn on rank's engine at absolute time t, clamping t
// into the engine's executed present when it lies in the past (the
// coupled analogue of Engine.At's clamp). It is the cross-group
// scheduling primitive: call it from a barrier-deferred op, or from
// any context when the target shares the caller's group.
func (ce *CoupledEngine) At(rank int, t Time, fn func()) {
	g := ce.groupOf[rank]
	sub := ce.subs[g]
	// Mirror Engine.At's past-time clamp: under schedule perturbation
	// the upstream event that computed t may itself have been jittered
	// past t, and the receiving group may have run to the window edge
	// before the barrier delivered this op. The clamp target — the
	// sub-engine's Now at barrier time — is fixed once its window
	// completed, so the result is deterministic and independent of the
	// worker count.
	if t < sub.Now() {
		t = sub.Now()
	}
	at := sub.At(t, fn)
	if ce.inBarrier {
		// Barrier delivery may re-awaken an idle group (or move an
		// active group's horizon earlier): publish incrementally so
		// the next window's bound sees it without a group scan. The
		// event's own time is used — perturbation jitter may have
		// moved it. Window-time At calls target the caller's group,
		// which re-publishes wholesale after the window, so only the
		// barrier needs this.
		if at < ce.tree.get(int(g)) {
			ce.tree.update(int(g), at)
		}
	}
}

// Elapsed returns the latest executed-event time across all groups
// (the coupled analogue of Engine.Now after Run).
func (ce *CoupledEngine) Elapsed() Time {
	var max Time
	for _, sub := range ce.subs {
		if now := sub.Now(); now > max {
			max = now
		}
	}
	return max
}

// Executed returns the total number of dispatched events.
func (ce *CoupledEngine) Executed() uint64 {
	var n uint64
	for _, sub := range ce.subs {
		n += sub.Executed()
	}
	return n
}

// Windows returns how many conservative windows Run executed (1 for a
// delegated one-group run).
func (ce *CoupledEngine) Windows() uint64 { return ce.windows }

// Dispatches returns the total number of group-window dispatches (the
// sum over windows of each window's active-group count). With G
// groups, Dispatches << Windows×G is the active-group filter working:
// idle groups are never touched. A delegated one-group run reports 1.
func (ce *CoupledEngine) Dispatches() uint64 { return ce.dispatches }

// PhaseWall returns the wall-clock time the window loop spent in its
// three phases: executing group events (including each group's
// deferred-run pre-sort), applying deferred ops at barriers (the
// k-way merge), and maintaining the window bound (min-tracker reads,
// active-set collection, horizon refresh). The split is the
// engine-layer start of a Breaking-Band-style cost attribution; it is
// wall-clock metadata and never feeds back into simulated state.
func (ce *CoupledEngine) PhaseWall() (exec, barrier, scan time.Duration) {
	return ce.execWall, ce.barrierWall, ce.scanWall
}

// Digest folds every group engine's event-order digest in group order
// into one summary of the full execution. Group structure is
// topology-determined, so the digest is invariant under the worker
// count — the certificate the shard-determinism suite compares.
func (ce *CoupledEngine) Digest() uint64 {
	h := fnvOffsetBasis
	for _, sub := range ce.subs {
		h = mixDigest(h, sub.Digest())
	}
	return h
}

// GroupStats returns per-group execution summaries in group order. An
// inline run measures busy time once for the whole loop; it is
// attributed to groups proportionally to their executed events.
func (ce *CoupledEngine) GroupStats() []GroupStats {
	out := make([]GroupStats, len(ce.subs))
	var total int64
	for g, sub := range ce.subs {
		out[g] = GroupStats{Ranks: ce.nranks[g], Executed: int64(sub.Executed()), Busy: ce.busy[g]}
		total += out[g].Executed
	}
	if ce.loopBusy > 0 && total > 0 {
		for g := range out {
			out[g].Busy += time.Duration(int64(ce.loopBusy) * out[g].Executed / total)
		}
	}
	return out
}

// BusyWall summarizes parallel efficiency for a run that took `wall`
// of wall-clock time: summed per-group busy time divided by wall. On
// an N-core runner an ideally scaling workload approaches N; on a
// single-core runner it approaches 1 from below, the gap being
// barrier and scheduling overhead.
func (ce *CoupledEngine) BusyWall(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	busy := ce.loopBusy
	for _, d := range ce.busy {
		busy += d
	}
	return float64(busy) / float64(wall)
}

// firstErr collects the first group-confined error in group order.
func (ce *CoupledEngine) firstErr() error {
	for _, err := range ce.gerr {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run drives the coupled simulation to completion: repeated
// conservative windows of (possibly parallel) group execution, each
// closed by a single-threaded barrier applying the deferred
// cross-group ops in total order. It returns a DeadlockError if
// processes are still parked when every queue drains, or the first
// bound/capacity violation.
func (ce *CoupledEngine) Run() error {
	if ce.started {
		return errors.New("sim: CoupledEngine.Run called twice")
	}
	ce.started = true
	if len(ce.subs) == 1 {
		// One group: the sequential engine is exact; no windows, no
		// barriers, native deadlock reporting.
		ce.windows = 1
		ce.dispatches = 1
		t0 := time.Now()
		err := ce.subs[0].Run()
		ce.busy[0] += time.Since(t0)
		ce.execWall += ce.busy[0]
		if err == nil {
			err = ce.firstErr()
		}
		return err
	}
	// Seed the horizon tree from the post-spawn queues; from here on
	// it is maintained incrementally (post-window refresh of dispatched
	// groups, barrier At publications).
	ce.tree.init(len(ce.subs))
	for g, sub := range ce.subs {
		if at, ok := sub.NextAt(); ok {
			ce.tree.update(g, at)
		}
	}
	if ce.workers > 1 {
		ce.startPool()
		defer ce.stopPool()
	} else {
		// Inline windows run on this goroutine back to back: one
		// whole-loop measurement replaces two clock reads per group
		// per window (the per-window pairs cost more than the windows
		// on short-event workloads).
		t0 := time.Now()
		defer func() { ce.loopBusy = time.Since(t0) }()
	}
	for {
		s0 := time.Now()
		minNext := ce.tree.min()
		if minNext == timeMax {
			return ce.finish()
		}
		w1 := timeMax
		if minNext <= timeMax-ce.lookahead {
			w1 = minNext + ce.lookahead
		}
		ce.active = ce.tree.collect(w1, ce.active[:0])
		ce.scanWall += time.Since(s0)
		ce.windows++
		ce.dispatches += uint64(len(ce.active))
		e0 := time.Now()
		err := ce.window(w1)
		e1 := time.Now()
		ce.execWall += e1.Sub(e0)
		// Dispatched groups re-publish their horizons; undisturbed
		// groups keep their published value (nothing else may touch a
		// group's queue outside its own window or the barrier).
		for _, g := range ce.active {
			at, ok := ce.subs[g].NextAt()
			if !ok {
				at = timeMax
			}
			ce.tree.update(int(g), at)
		}
		ce.scanWall += time.Since(e1)
		if err != nil {
			return err
		}
		b0 := time.Now()
		err = ce.applyDeferred()
		ce.barrierWall += time.Since(b0)
		if err != nil {
			return err
		}
		if err := ce.firstErr(); err != nil {
			return err
		}
		if ce.maxEv != 0 && ce.Executed() > ce.maxEv {
			return fmt.Errorf("sim: coupled event limit %d exceeded at t=%v", ce.maxEv, ce.Elapsed())
		}
	}
}

// window executes one conservative window on every active group. With
// one worker (or one active group) the groups run inline; with more,
// the persistent pool workers pull group indices from the shared
// cursor, and a worker panic is re-raised on the caller's goroutine so
// recovery semantics match the sequential engine at every worker
// count. Error and panic selection is by ascending group index —
// identical at every worker count — and each group's deferred-op run
// is pre-sorted by whoever executed it, in parallel under the pool.
func (ce *CoupledEngine) window(w1 Time) error {
	active := ce.active
	if ce.workers <= 1 {
		for _, g := range active {
			if err := ce.subs[g].RunBefore(w1); err != nil {
				return err
			}
			sortOps(ce.ops[g])
		}
		return nil
	}
	if len(active) == 1 {
		// One eligible group: skip the pool handshake. Inline panics
		// propagate natively — observably identical to the pool's
		// recover/re-raise.
		g := active[0]
		t0 := time.Now()
		err := ce.subs[g].RunBefore(w1)
		if err == nil {
			sortOps(ce.ops[g])
		}
		ce.busy[g] += time.Since(t0)
		return err
	}
	ce.w1 = w1
	ce.cursor.Store(0)
	for _, ch := range ce.wstart {
		ch <- struct{}{}
	}
	for range ce.wstart {
		<-ce.wdone
	}
	for _, g := range active {
		if r := ce.wpanics[g]; r != nil {
			panic(r)
		}
	}
	for _, g := range active {
		if err := ce.werrs[g]; err != nil {
			return err
		}
	}
	return nil
}

// startPool launches the persistent window workers. Workers park on
// their start channels between windows and exit when Run closes them.
func (ce *CoupledEngine) startPool() {
	ce.werrs = make([]error, len(ce.subs))
	ce.wpanics = make([]any, len(ce.subs))
	ce.wdone = make(chan struct{}, ce.workers)
	ce.wstart = make([]chan struct{}, ce.workers)
	for w := range ce.wstart {
		ce.wstart[w] = make(chan struct{}, 1)
		go ce.poolWorker(ce.wstart[w])
	}
}

// stopPool retires the workers (deferred from Run, so the pool dies
// with the run whether it completed, errored, or panicked).
func (ce *CoupledEngine) stopPool() {
	for _, ch := range ce.wstart {
		close(ch)
	}
}

// poolWorker is one persistent window worker: per start token it
// drains the shared cursor over the active set, then reports done.
func (ce *CoupledEngine) poolWorker(start chan struct{}) {
	for range start {
		for {
			i := ce.cursor.Add(1) - 1
			if i >= int64(len(ce.active)) {
				break
			}
			ce.runGroup(int(ce.active[i]))
		}
		ce.wdone <- struct{}{}
	}
}

// runGroup executes one group's window on the calling worker. The
// per-group error/panic slots are reset here — only for dispatched
// groups, folded into the dispatch itself — and the busy timer starts
// after the queue handoff, so pool wait time is never charged to the
// group and busy/wall ratios stay meaningful.
func (ce *CoupledEngine) runGroup(g int) {
	t0 := time.Now()
	ce.werrs[g], ce.wpanics[g] = nil, nil
	func() {
		defer func() {
			if r := recover(); r != nil {
				ce.wpanics[g] = r
			}
		}()
		ce.werrs[g] = ce.subs[g].RunBefore(ce.w1)
	}()
	if ce.werrs[g] == nil && ce.wpanics[g] == nil {
		// Pre-sort this group's deferred run for the merge barrier —
		// on the worker, so the sort parallelizes with other groups'
		// execution instead of serializing at the barrier.
		sortOps(ce.ops[g])
	}
	ce.busy[g] += time.Since(t0)
}

// sortOps orders one deferred-op run by (at, key). Keys embed each
// sender's monotone counter, so pairs are unique and the unstable
// sort is still a total order.
func sortOps(ops []deferredOp) {
	if len(ops) < 2 {
		return
	}
	slices.SortFunc(ops, func(a, b deferredOp) int {
		switch {
		case a.at != b.at:
			if a.at < b.at {
				return -1
			}
			return 1
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
}

// takeRun detaches group g's deferred run for merging and installs
// the group's back buffer (emptied) as the new front, so follow-up
// Defers during the merge land in fresh storage while the detached
// run is iterated. Both buffers persist across windows — the
// steady-state barrier allocates nothing.
func (ce *CoupledEngine) takeRun(g int) []deferredOp {
	r := ce.ops[g]
	ce.ops[g] = ce.opsBack[g][:0]
	ce.opsBack[g] = r
	return r
}

// applyDeferred is the window barrier: it merges every active group's
// pre-sorted deferred run and applies the ops single-threaded in
// (at, key) order, repeating until no op remains (an op may defer
// follow-ups). Only the window's active groups — plus groups that
// deferred during the barrier itself — are consulted; idle groups are
// never scanned.
func (ce *CoupledEngine) applyDeferred() error {
	cand := ce.active
	for round := 0; ; round++ {
		runs := ce.runs[:0]
		for _, g := range cand {
			if len(ce.ops[g]) == 0 {
				continue // empty, or a duplicate candidate already taken
			}
			r := ce.takeRun(int(g))
			if round > 0 {
				// Barrier-emitted follow-ups arrive in barrier order,
				// not (at, key) order: sort before merging.
				sortOps(r)
			}
			runs = append(runs, r)
		}
		ce.runs = runs // keep any growth for the next window
		if len(runs) == 0 {
			return nil
		}
		ce.bops = ce.bops[:0]
		ce.inBarrier = true
		ce.mergeExec(runs)
		ce.inBarrier = false
		if err := ce.firstErr(); err != nil {
			return err
		}
		// Follow-up candidates are copied out of the collector so the
		// next round can reset it without aliasing its own input.
		ce.bscratch = append(ce.bscratch[:0], ce.bops...)
		cand = ce.bscratch
	}
}

// mergeEnt is one run head inside the barrier's k-way merge heap.
type mergeEnt struct {
	at  Time
	key uint64
	run int32
}

func mergeLess(a, b *mergeEnt) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// mergeExec applies the runs' ops in globally ascending (at, key)
// order via a k-way merge: a binary heap holds each run's head, and
// every pop advances one run. Comparisons are O(n log k) against the
// retired full sort's O(n log n), and — unlike the full sort — the
// per-run ordering work already happened on the window workers.
func (ce *CoupledEngine) mergeExec(runs [][]deferredOp) {
	if len(runs) == 1 {
		for i := range runs[0] {
			runs[0][i].run()
		}
		return
	}
	pos := ce.mergePos[:0]
	hp := ce.mergeHp[:0]
	for r := range runs {
		op := &runs[r][0]
		hp = append(hp, mergeEnt{at: op.at, key: op.key, run: int32(r)})
		pos = append(pos, 0)
	}
	ce.mergePos, ce.mergeHp = pos, hp
	// Heapify (sift-down from the last parent).
	for i := len(hp)/2 - 1; i >= 0; i-- {
		mergeSiftDown(hp, i)
	}
	for len(hp) > 0 {
		r := hp[0].run
		op := &runs[r][pos[r]]
		pos[r]++
		if int(pos[r]) < len(runs[r]) {
			nxt := &runs[r][pos[r]]
			hp[0] = mergeEnt{at: nxt.at, key: nxt.key, run: r}
		} else {
			hp[0] = hp[len(hp)-1]
			hp = hp[:len(hp)-1]
		}
		if len(hp) > 1 {
			mergeSiftDown(hp, 0)
		}
		op.run()
	}
}

// mergeSiftDown restores the binary-heap order below node i.
func mergeSiftDown(hp []mergeEnt, i int) {
	n := len(hp)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && mergeLess(&hp[c+1], &hp[c]) {
			c++
		}
		if !mergeLess(&hp[c], &hp[i]) {
			return
		}
		hp[i], hp[c] = hp[c], hp[i]
		i = c
	}
}

// finish handles run termination: clean completion, a first recorded
// group error, or an aggregated deadlock report across all groups.
func (ce *CoupledEngine) finish() error {
	if err := ce.firstErr(); err != nil {
		return err
	}
	var parked []string
	for _, sub := range ce.subs {
		parked = sub.parkedNames(parked)
	}
	if len(parked) > 0 {
		sort.Strings(parked)
		return &DeadlockError{Time: ce.Elapsed(), Parked: parked}
	}
	return nil
}
