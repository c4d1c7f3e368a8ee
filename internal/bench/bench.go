// Package bench is the microbenchmark harness behind the paper's
// bandwidth figures: sustained bandwidth as a function of message
// size and messages per synchronization for two-sided MPI, one-sided
// MPI, and GPU-initiated put-with-signal (Figs 1, 3, 4), atomic
// compare-and-swap latencies (§III-C), and the message-splitting
// experiment (Fig 10). Every point is measured by running the actual
// simulated stack, exactly as the paper measured its dots on real
// machines; the fitted LogGP parameters then draw the ceilings.
//
// The single driver is Sweep(cfg, Spec): it enumerates the (msg/sync,
// size) grid, runs every point as an isolated simulation on an
// internal/sched worker pool (Spec.Jobs wide), and collects points in
// grid order — so results are byte-identical at any job count. The
// callers name the protocol via Spec.Transport.
package bench

import (
	"fmt"
	"strings"

	"msgroofline/internal/comm"
	"msgroofline/internal/loggp"
	"msgroofline/internal/machine"
	"msgroofline/internal/mpi"
	"msgroofline/internal/plot"
	"msgroofline/internal/pointcache"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sched"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

// Point is one measured sweep sample: a window of N messages of Bytes
// each completed in Elapsed, achieving GBs of sustained bandwidth.
type Point struct {
	N       int
	Bytes   int64
	Elapsed sim.Time
	GBs     float64
}

// Result is a sweep on one machine/transport.
type Result struct {
	Machine   string
	Transport string
	Points    []Point

	// Sched carries the measurement-host statistics of the sweep that
	// produced the result: how fast the missing simulations were
	// regenerated (Host) and how many points the content-addressed
	// cache served instead (Cache). It is wall-clock metadata, varies
	// run to run, and must never be mixed into simulated output.
	Sched *RunStats
}

// RunStats splits the measurement-host statistics of one sweep into
// its two independent sources: the worker-pool scheduling of the
// points that actually simulated, and the point-cache counters for the
// points that did not need to.
type RunStats struct {
	// Host holds the scheduler stats of the simulated (cache-miss)
	// points; with the cache disabled that is every point of the grid.
	Host *sched.Stats
	// Cache holds this sweep's pointcache counters: grid-point
	// lookups, hits by tier, misses handed to the scheduler, and the
	// simulated payload volume the hits saved. All zero when the sweep
	// ran without a cache.
	Cache pointcache.Stats
}

// Transport selects which messaging protocol a Sweep measures. It is
// a superset of machine.Transport: the strict one-sided variant is a
// protocol discipline (remote flush per message), not a different
// software stack.
type Transport int

const (
	// TwoSided is the nonblocking Isend/Irecv/Waitall window.
	TwoSided Transport = iota
	// OneSided is the paper's 4-op windowed protocol (Put,
	// FlushLocal, Put(signal), FlushLocal; remote flushes close the
	// window).
	OneSided
	// OneSidedStrict is the per-message 4-op protocol with remote
	// flushes after every operation (Fig 6b's 5 us/message cost).
	OneSidedStrict
	// ShmemPutSignal is GPU-initiated put-with-signal (Fig 4).
	ShmemPutSignal
	// StreamTriggered is stream-triggered MPI: descriptors enqueued on
	// the device stream, fired by the GPU trigger engine.
	StreamTriggered
	// MemChannel is the RAMC-style ordered memory channel: FIFO byte
	// streams with open/credit semantics, one op per message.
	MemChannel
)

// String names the transport exactly as Result.Transport labels it in
// the figures.
func (t Transport) String() string {
	switch t {
	case TwoSided:
		return machine.TwoSided.String()
	case OneSided:
		return machine.OneSided.String()
	case OneSidedStrict:
		return "one-sided-strict"
	case ShmemPutSignal:
		return machine.GPUShmem.String()
	case StreamTriggered:
		return machine.StreamTriggered.String()
	case MemChannel:
		return machine.MemChannel.String()
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Transports enumerates every sweepable protocol in figure order — the
// single registry CLI parsing, usage text, and error messages derive
// their name lists from.
func Transports() []Transport {
	return []Transport{TwoSided, OneSided, OneSidedStrict, ShmemPutSignal, StreamTriggered, MemChannel}
}

// TransportList is the comma-separated name list of every sweepable
// protocol, for usage text and parse errors.
func TransportList() string {
	names := make([]string, 0, len(Transports()))
	for _, t := range Transports() {
		names = append(names, t.String())
	}
	return strings.Join(names, ", ")
}

// ParseTransport maps the figure/CLI names back to a Transport.
func ParseTransport(s string) (Transport, error) {
	for _, t := range Transports() {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("bench: unknown transport %q (want one of: %s)", s, TransportList())
}

// Spec describes one sweep: which protocol to measure, between how
// many ranks/PEs, over which msg/sync and message-size grids, and how
// many sweep points to simulate concurrently.
type Spec struct {
	// Transport is the protocol under test.
	Transport Transport
	// Ranks is the number of ranks (MPI) or PEs (SHMEM) in the job;
	// 0 defaults to 2 (the communicating far pair).
	Ranks int
	// Ns is the msg/sync grid; nil defaults to DefaultNs().
	Ns []int
	// Sizes is the message-size grid; nil defaults to DefaultSizes().
	Sizes []int64
	// Jobs is the number of sweep points simulated concurrently.
	// Every point is an independent, bit-reproducible simulation and
	// results are collected in grid order, so any Jobs value yields
	// byte-identical output. Jobs <= 0 runs sequentially (1); use
	// runtime.GOMAXPROCS(0) to saturate the host.
	Jobs int
	// Cache, when enabled, memoizes every point by its content
	// address (machine parameters + transport + ranks + coordinates +
	// schema salt): hits skip the simulation entirely and misses are
	// stored after simulating. Because simulations are deterministic
	// and the key covers everything that determines the outcome, the
	// sweep result is byte-identical at any cache mode. Nil disables
	// caching.
	Cache *pointcache.Cache
	// Shards is the window worker parallelism of each point's
	// simulated world (0 means 1). The node-group decomposition and
	// event order are topology-determined, so points are
	// byte-identical at every value — which is also why Shards is
	// deliberately absent from the pointcache key (PointSpec.Key).
	Shards int
}

func (s Spec) withDefaults() Spec {
	if s.Ranks == 0 {
		s.Ranks = 2
	}
	if s.Ns == nil {
		s.Ns = DefaultNs()
	}
	if s.Sizes == nil {
		s.Sizes = DefaultSizes()
	}
	if s.Jobs <= 0 {
		s.Jobs = 1
	}
	return s
}

// PointSpec identifies one sweep-point simulation: everything the
// measurement needs and (through Key) everything that determines its
// outcome. The dedup planner in internal/experiments enumerates the
// figures' sweeps as PointSpec sets to simulate the union exactly once.
type PointSpec struct {
	Machine   *machine.Config
	Transport Transport
	// Ranks is the job size; 0 defaults to 2 at measurement time,
	// matching Spec semantics.
	Ranks int
	N     int
	Bytes int64
	// Shards is the window worker parallelism of the point's world.
	// It can never change the simulated outcome (workers only execute
	// already-committed windows), so Key deliberately excludes it: a
	// point cached at -shards 1 is a valid hit at -shards 4.
	Shards int
}

// Key is the point's content address in the pointcache.
func (ps PointSpec) Key() pointcache.Key {
	ranks := ps.Ranks
	if ranks == 0 {
		ranks = 2
	}
	return pointcache.KeyOf(ps.Machine, pointcache.KindSweep, ps.Transport.String(), ranks, ps.N, ps.Bytes)
}

// SimBytes is the simulated payload volume of the point — what a
// cache hit saves.
func (ps PointSpec) SimBytes() int64 { return int64(ps.N) * ps.Bytes }

// MeasurePoint runs the single simulation behind one sweep point.
func MeasurePoint(ps PointSpec) (Point, error) {
	if ps.Ranks == 0 {
		ps.Ranks = 2
	}
	if ps.Ranks < 2 {
		return Point{}, fmt.Errorf("bench: point needs at least 2 ranks, got %d", ps.Ranks)
	}
	return measure(ps.Machine, ps.Transport, ps.Ranks, ps.N, ps.Bytes, ps.Shards)
}

// ExpandPoints enumerates the spec's (n, size) grid on cfg in sweep
// order (row-major: Ns outer, Sizes inner), after applying the spec
// defaults — the exact point set Sweep would measure.
func ExpandPoints(cfg *machine.Config, spec Spec) []PointSpec {
	spec = spec.withDefaults()
	out := make([]PointSpec, 0, len(spec.Ns)*len(spec.Sizes))
	for _, n := range spec.Ns {
		for _, b := range spec.Sizes {
			out = append(out, PointSpec{Machine: cfg, Transport: spec.Transport,
				Ranks: spec.Ranks, N: n, Bytes: b, Shards: spec.Shards})
		}
	}
	return out
}

// Sweep measures every (n, size) point of the spec's grid on cfg and
// returns them in grid order (row-major: Ns outer, Sizes inner — the
// order the legacy Sweep* entry points produced). With Spec.Cache
// enabled every point is first looked up by content address and only
// the misses are simulated (then stored); the misses run on up to
// Spec.Jobs goroutines via internal/sched. Because each point is an
// isolated, deterministic simulation, the result is byte-identical at
// any job count and any cache mode.
func Sweep(cfg *machine.Config, spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if spec.Ranks < 2 {
		return nil, fmt.Errorf("bench: sweep needs at least 2 ranks, got %d", spec.Ranks)
	}
	grid := ExpandPoints(cfg, spec)
	points := make([]Point, len(grid))
	var cs pointcache.Stats
	miss := make([]int, 0, len(grid))
	if spec.Cache.Enabled() {
		for i, ps := range grid {
			cs.Lookups++
			el, tier, ok := spec.Cache.Get(ps.Key())
			if !ok {
				cs.Misses++
				miss = append(miss, i)
				continue
			}
			points[i] = point(ps.N, ps.Bytes, el)
			cs.Hits++
			if tier == pointcache.TierDisk {
				cs.DiskHits++
			} else {
				cs.MemHits++
			}
			cs.BytesSaved += ps.SimBytes()
			spec.Cache.AddBytesSaved(ps.SimBytes())
		}
	} else {
		for i := range grid {
			miss = append(miss, i)
		}
	}
	measured, stats, err := sched.Map(spec.Jobs, len(miss), func(j int) (Point, error) {
		ps := grid[miss[j]]
		p, err := measure(cfg, ps.Transport, ps.Ranks, ps.N, ps.Bytes, ps.Shards)
		if err == nil {
			spec.Cache.Put(ps.Key(), p.Elapsed)
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	for j, p := range measured {
		points[miss[j]] = p
	}
	if spec.Cache.Enabled() {
		cs.Stores = int64(len(miss))
	}
	return &Result{
		Machine:   cfg.Name,
		Transport: spec.Transport.String(),
		Points:    points,
		Sched:     &RunStats{Host: stats, Cache: cs},
	}, nil
}

// measure runs the single simulation behind one sweep point.
func measure(cfg *machine.Config, t Transport, ranks, n int, b int64, shards int) (Point, error) {
	switch t {
	case TwoSided:
		return measureTwoSided(cfg, ranks, n, b, shards)
	case OneSided:
		return measureOneSided(cfg, ranks, n, b, shards, false)
	case OneSidedStrict:
		return measureOneSided(cfg, ranks, n, b, shards, true)
	case ShmemPutSignal:
		return measureShmemPutSignal(cfg, ranks, n, b, shards)
	case StreamTriggered:
		return measureCommStream(cfg, comm.StreamTriggered, ranks, n, b, shards)
	case MemChannel:
		return measureCommStream(cfg, comm.MemChannel, ranks, n, b, shards)
	default:
		return Point{}, fmt.Errorf("bench: unknown transport %v", t)
	}
}

// DefaultNs is the msg/sync sweep used by the figures.
func DefaultNs() []int { return []int{1, 4, 16, 64, 256, 1024} }

// DefaultSizes is the message-size sweep (8 B .. 1 MiB).
func DefaultSizes() []int64 {
	var out []int64
	for b := int64(8); b <= 1<<20; b *= 4 {
		out = append(out, b)
	}
	return out
}

func point(n int, b int64, elapsed sim.Time) Point {
	p := Point{N: n, Bytes: b, Elapsed: elapsed}
	if elapsed > 0 {
		p.GBs = float64(n) * float64(b) / elapsed.Seconds() / 1e9
	}
	return p
}

// farPair picks the representative communicating pair on a machine:
// the first rank and the last, which the catalog places on different
// sockets/islands whenever the machine has more than one.
func farPair(ranks int) (int, int) { return 0, ranks - 1 }

// measureTwoSided measures one two-sided MPI window: the receiver
// posts N nonblocking receives, the sender issues N nonblocking
// sends, and the window closes at the receiver's Waitall. Both ranks
// synchronize on a barrier before timing.
func measureTwoSided(cfg *machine.Config, ranks, n int, b int64, shards int) (Point, error) {
	src, dst := farPair(ranks)
	var elapsed sim.Time
	c, err := mpi.NewCommSharded(cfg, ranks, shards)
	if err != nil {
		return Point{}, err
	}
	err = c.Launch(func(r *mpi.Rank) {
		switch r.Rank() {
		case src:
			r.Barrier()
			payload := make([]byte, b)
			for i := 0; i < n; i++ {
				r.Isend(dst, i, payload)
			}
		case dst:
			reqs := make([]*mpi.Request, n)
			for i := 0; i < n; i++ {
				reqs[i] = r.Irecv(src, i)
			}
			r.Barrier()
			start := r.Now()
			r.Waitall(reqs)
			elapsed = r.Now() - start
		default:
			r.Barrier()
		}
	})
	if err != nil {
		return Point{}, fmt.Errorf("bench: two-sided %s n=%d B=%d: %w", cfg.Name, n, b, err)
	}
	return point(n, b, elapsed), nil
}

// measureOneSided measures one one-sided MPI window using the paper's
// operation budget of four one-sided calls per message: for each
// message a Put of the data, a flush, a Put of the signal word, and a
// flush. In the windowed protocol (strict=false) the per-message
// flushes are local and the window closes with remote flushes, as in
// the flood-style sweep; the receiver's Listing-1 acknowledgment loop
// is exercised by the SpTRSV workload. With strict=true every flush
// waits for remote completion — the per-message notification protocol
// SpTRSV must use, the 5 us/message cost of Fig 6b, and the reason
// one-sided SpTRSV loses (§III-B).
func measureOneSided(cfg *machine.Config, ranks, n int, b int64, shards int, strict bool) (Point, error) {
	src, dst := farPair(ranks)
	var elapsed sim.Time
	c, err := mpi.NewCommSharded(cfg, ranks, shards)
	if err != nil {
		return Point{}, err
	}
	data, err := c.NewWin(int(b))
	if err != nil {
		return Point{}, err
	}
	sig, err := c.NewWin(8 * n)
	if err != nil {
		return Point{}, err
	}
	one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	err = c.Launch(func(r *mpi.Rank) {
		if r.Rank() != src {
			r.Barrier()
			return
		}
		r.Barrier()
		payload := make([]byte, b)
		start := r.Now()
		if strict {
			for i := 0; i < n; i++ {
				r.Put(data, dst, 0, payload)
				r.Flush(data, dst)
				r.Put(sig, dst, 8*i, one)
				r.Flush(sig, dst)
			}
		} else {
			for i := 0; i < n; i++ {
				r.Put(data, dst, 0, payload)
				r.FlushLocal(data, dst)
				r.Put(sig, dst, 8*i, one)
				r.FlushLocal(sig, dst)
			}
			r.Flush(data, dst)
			r.Flush(sig, dst)
		}
		elapsed = r.Now() - start
	})
	if err != nil {
		label := "one-sided"
		if strict {
			label = "strict one-sided"
		}
		return Point{}, fmt.Errorf("bench: %s %s n=%d B=%d: %w", label, cfg.Name, n, b, err)
	}
	return point(n, b, elapsed), nil
}

// measureShmemPutSignal measures one GPU-initiated put-with-signal
// window (Fig 4): the sender PE issues N fused put+signal operations,
// the receiver waits until all N signals land, and the window closes
// at the receiver.
func measureShmemPutSignal(cfg *machine.Config, npes, n int, b int64, shards int) (Point, error) {
	src, dst := farPair(npes)
	var elapsed sim.Time
	heap := int(b) + 8*n + 64
	j, err := shmem.NewJobOn(cfg, machine.GPUShmem, npes, heap, shards)
	if err != nil {
		return Point{}, err
	}
	err = j.Launch(func(c *shmem.Ctx) {
		switch c.MyPE() {
		case src:
			c.Barrier()
			payload := make([]byte, b)
			for i := 0; i < n; i++ {
				c.PutSignalNBI(dst, 0, payload, int(b)+8*i, 1)
			}
			c.Quiet()
		case dst:
			sigs := make([]int, n)
			for i := range sigs {
				sigs[i] = int(b) + 8*i
			}
			c.Barrier()
			start := c.Now()
			c.WaitUntilAll(sigs, 1)
			elapsed = c.Now() - start
		default:
			c.Barrier()
		}
	})
	if err != nil {
		return Point{}, fmt.Errorf("bench: shmem %s n=%d B=%d: %w", cfg.Name, n, b, err)
	}
	return point(n, b, elapsed), nil
}

// measureCommStream measures one streamed-delivery window on a
// transport-layer stack (stream-triggered or memory-channel): the
// sender issues N signaled deliveries and quiets, the receiver times
// from the pre-window barrier to its Nth consumed slot. The trace tap
// stays off — the point is a timing, not an op census.
func measureCommStream(cfg *machine.Config, kind comm.Kind, ranks, n int, b int64, shards int) (Point, error) {
	src, dst := farPair(ranks)
	slots := make([]int, ranks)
	slots[dst] = n
	tr, err := comm.New(comm.Spec{
		Machine: cfg, Kind: kind, Ranks: ranks,
		StreamSlots: slots, SlotBytes: int(b),
		Shards: shards, NoTrace: true,
	})
	if err != nil {
		return Point{}, err
	}
	var elapsed sim.Time
	err = tr.Launch(func(ep comm.Endpoint) {
		switch ep.Rank() {
		case src:
			ep.Barrier()
			payload := make([]byte, b)
			for i := 0; i < n; i++ {
				ep.Deliver(dst, i, payload)
			}
			ep.Quiet()
		case dst:
			ep.Barrier()
			start := ep.Now()
			for got := 0; got < n; got++ {
				ep.WaitAnySlot()
			}
			elapsed = ep.Now() - start
		default:
			ep.Barrier()
		}
	})
	if err != nil {
		return Point{}, fmt.Errorf("bench: %s %s n=%d B=%d: %w", kind, cfg.Name, n, b, err)
	}
	return point(n, b, elapsed), nil
}

// cachedTime memoizes one sim.Time-valued kernel run under the cache:
// a hit returns the stored elapsed time, a miss runs the kernel and
// stores the result. With a nil/disabled cache it just runs the kernel.
func cachedTime(c *pointcache.Cache, k pointcache.Key, run func() (sim.Time, error)) (sim.Time, error) {
	if el, _, ok := c.Get(k); ok {
		return el, nil
	}
	el, err := run()
	if err == nil {
		c.Put(k, el)
	}
	return el, err
}

// CASLatencyCached measures the round-trip time of a GPU atomic
// compare-and-swap from PE 0 to dst (Fig 4 / §III-C), averaged over
// reps back-to-back operations, memoized through the point cache
// (KindCAS, coordinates dst/reps). A nil cache simulates directly.
func CASLatencyCached(c *pointcache.Cache, cfg *machine.Config, npes, dst, reps int) (sim.Time, error) {
	k := pointcache.KeyOf(cfg, pointcache.KindCAS, machine.GPUShmem.String(), npes, dst, int64(reps))
	return cachedTime(c, k, func() (sim.Time, error) { return casLatency(cfg, npes, dst, reps) })
}

func casLatency(cfg *machine.Config, npes, dst, reps int) (sim.Time, error) {
	j, err := shmem.NewJob(cfg, npes, 64)
	if err != nil {
		return 0, err
	}
	var total sim.Time
	err = j.Launch(func(c *shmem.Ctx) {
		if c.MyPE() != 0 {
			return
		}
		start := c.Now()
		for i := 0; i < reps; i++ {
			c.AtomicCompareSwap(dst, 0, uint64(i), uint64(i+1))
		}
		total = c.Now() - start
	})
	if err != nil {
		return 0, err
	}
	return total / sim.Time(reps), nil
}

// OneSidedCASLatencyCached measures the CPU one-sided
// MPI_Compare_and_swap round trip (the 2 us / 500K GUPS figure of
// §III-C), memoized through the point cache (KindCAS under the
// one-sided transport name). A nil cache simulates directly.
func OneSidedCASLatencyCached(pc *pointcache.Cache, cfg *machine.Config, ranks, dst, reps int) (sim.Time, error) {
	k := pointcache.KeyOf(cfg, pointcache.KindCAS, machine.OneSided.String(), ranks, dst, int64(reps))
	return cachedTime(pc, k, func() (sim.Time, error) { return oneSidedCASLatency(cfg, ranks, dst, reps) })
}

func oneSidedCASLatency(cfg *machine.Config, ranks, dst, reps int) (sim.Time, error) {
	c, err := mpi.NewComm(cfg, ranks)
	if err != nil {
		return 0, err
	}
	w, err := c.NewWin(64)
	if err != nil {
		return 0, err
	}
	var total sim.Time
	err = c.Launch(func(r *mpi.Rank) {
		if r.Rank() != 0 {
			return
		}
		start := r.Now()
		for i := 0; i < reps; i++ {
			r.CompareAndSwap(w, dst, 0, uint64(i), uint64(i+1))
		}
		total = r.Now() - start
	})
	if err != nil {
		return 0, err
	}
	return total / sim.Time(reps), nil
}

// TriggerDelayCached measures the stream-triggered per-message
// delivery latency: reps back-to-back 8-byte deliveries,
// receiver-timed and averaged. With the host overhead nearly off the
// critical path the number is dominated by L + TriggerLatency — the
// o/L inversion the offload roofline plots. It is memoized through
// the point cache (KindTrigger); a nil cache simulates directly.
func TriggerDelayCached(c *pointcache.Cache, cfg *machine.Config, ranks, reps int) (sim.Time, error) {
	k := pointcache.KeyOf(cfg, pointcache.KindTrigger, machine.StreamTriggered.String(), ranks, reps, 8)
	return cachedTime(c, k, func() (sim.Time, error) { return triggerDelay(cfg, ranks, reps) })
}

func triggerDelay(cfg *machine.Config, ranks, reps int) (sim.Time, error) {
	p, err := measureCommStream(cfg, comm.StreamTriggered, ranks, reps, 8, 0)
	if err != nil {
		return 0, err
	}
	return p.Elapsed / sim.Time(reps), nil
}

// ChannelOpenCached measures the memory channel's one-time open
// handshake: the sender-timed cost of a single 8-byte send-and-drain
// on a cold (never-opened) channel minus the same on the now-warm
// channel — the difference is exactly the open cost, every
// per-message term cancels. It is memoized through the point cache
// (KindChan); a nil cache simulates directly.
func ChannelOpenCached(c *pointcache.Cache, cfg *machine.Config, ranks int) (sim.Time, error) {
	k := pointcache.KeyOf(cfg, pointcache.KindChan, machine.MemChannel.String(), ranks, 0, 8)
	return cachedTime(c, k, func() (sim.Time, error) { return channelOpen(cfg, ranks) })
}

func channelOpen(cfg *machine.Config, ranks int) (sim.Time, error) {
	tp, ok := cfg.Params(machine.MemChannel)
	if !ok {
		return 0, fmt.Errorf("bench: machine %s has no memory-channel transport", cfg.Name)
	}
	w, err := runtime.NewWorld(cfg, ranks)
	if err != nil {
		return 0, err
	}
	src, dst := farPair(ranks)
	ep := w.Endpoint(src)
	ch := runtime.NewChannel(ep, dst, tp)
	var cold, warm sim.Time
	w.Spawn(src, "opener", func(p *sim.Proc) {
		start := p.Now()
		ch.Send(p, 8, ep.AutoChannel(), nil)
		ch.Drain(p)
		cold = p.Now() - start
		start = p.Now()
		ch.Send(p, 8, ep.AutoChannel(), nil)
		ch.Drain(p)
		warm = p.Now() - start
	})
	if err := w.Run(); err != nil {
		return 0, err
	}
	return cold - warm, nil
}

// SplitPoint is one Fig-10 measurement: a message volume sent whole
// vs split into `Parts` channel-pinned sub-messages.
type SplitPoint struct {
	Volume  int64
	Whole   sim.Time
	Split   sim.Time
	Speedup float64
}

// SweepSplitCached measures the Fig-10 experiment on a GPU machine:
// for each volume, send it as one put-with-signal versus `parts` puts
// on distinct injection channels, receiver waiting for all signals.
// Each (volume, parts) run is memoized through the point cache
// (KindSplit); a nil cache simulates every run directly.
func SweepSplitCached(c *pointcache.Cache, cfg *machine.Config, parts int, volumes []int64) ([]SplitPoint, error) {
	var out []SplitPoint
	for _, v := range volumes {
		whole, err := splitRunCached(c, cfg, v, 1)
		if err != nil {
			return nil, err
		}
		split, err := splitRunCached(c, cfg, v, parts)
		if err != nil {
			return nil, err
		}
		sp := SplitPoint{Volume: v, Whole: whole, Split: split}
		if split > 0 {
			sp.Speedup = float64(whole) / float64(split)
		}
		out = append(out, sp)
	}
	return out, nil
}

func splitRunCached(c *pointcache.Cache, cfg *machine.Config, volume int64, parts int) (sim.Time, error) {
	k := pointcache.KeyOf(cfg, pointcache.KindSplit, machine.GPUShmem.String(), 2, parts, volume)
	return cachedTime(c, k, func() (sim.Time, error) { return splitRun(cfg, volume, parts) })
}

func splitRun(cfg *machine.Config, volume int64, parts int) (sim.Time, error) {
	var elapsed sim.Time
	heap := int(volume) + 8*parts + 64
	j, err := shmem.NewJob(cfg, 2, heap)
	if err != nil {
		return 0, err
	}
	err = j.Launch(func(c *shmem.Ctx) {
		switch c.MyPE() {
		case 0:
			c.Barrier()
			per := volume / int64(parts)
			for i := 0; i < parts; i++ {
				sz := per
				if i == parts-1 {
					sz = volume - per*int64(parts-1)
				}
				c.PutSignalNBICh(1, int(per)*i, make([]byte, sz), int(volume)+8*i, 1, i)
			}
			c.Quiet()
		case 1:
			sigs := make([]int, parts)
			for i := range sigs {
				sigs[i] = int(volume) + 8*i
			}
			c.Barrier()
			start := c.Now()
			c.WaitUntilAll(sigs, 1)
			elapsed = c.Now() - start
		}
	})
	if err != nil {
		return 0, err
	}
	return elapsed, nil
}

// Samples converts measured points into fitter input.
func (r *Result) Samples() []loggp.Sample {
	out := make([]loggp.Sample, len(r.Points))
	for i, p := range r.Points {
		out[i] = loggp.Sample{N: p.N, Bytes: p.Bytes, Elapsed: p.Elapsed}
	}
	return out
}

// Series groups the points into one plot series per msg/sync value
// (x = message size, y = GB/s), the layout of Figs 1, 3 and 4.
func (r *Result) Series() []plot.Series {
	byN := map[int]*plot.Series{}
	var order []int
	for _, p := range r.Points {
		s, ok := byN[p.N]
		if !ok {
			s = &plot.Series{Name: fmt.Sprintf("%s %d msg/sync", r.Transport, p.N)}
			byN[p.N] = s
			order = append(order, p.N)
		}
		s.X = append(s.X, float64(p.Bytes))
		s.Y = append(s.Y, p.GBs)
	}
	out := make([]plot.Series, 0, len(order))
	for _, n := range order {
		out = append(out, plot.SortedByX(*byN[n]))
	}
	return out
}

// MaxGBs returns the best bandwidth in the sweep.
func (r *Result) MaxGBs() float64 {
	best := 0.0
	for _, p := range r.Points {
		if p.GBs > best {
			best = p.GBs
		}
	}
	return best
}

// At returns the measured point for (n, bytes), ok=false if absent.
// When the same (n, bytes) pair appears more than once the first point
// wins. A sweep holds at most a few dozen points, so a linear scan
// beats keeping an index in step with the exported Points slice.
func (r *Result) At(n int, bytes int64) (Point, bool) {
	for _, p := range r.Points {
		if p.N == n && p.Bytes == bytes {
			return p, true
		}
	}
	return Point{}, false
}
