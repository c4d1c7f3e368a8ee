// Package shmem is the simulator's symmetric-heap runtime: a
// symmetric heap per PE, nonblocking puts, the fused put-with-signal
// operation the paper's GPU codes use (nvshmem_double_put_signal_nbi),
// signal waiting (wait_until_all / wait_until_any), remote atomics
// (compare-and-swap, fetch-and-add), quiet, and a dissemination
// barrier. Ring collectives live in the separate internal/ccl layer.
// The heaps are one runtime.Segment, which owns bounds checks, the
// landing, completion counts, atomics and signal waits; this package
// decides only what a put charges and how it reaches the wire.
//
// A Job is built for one transport, which fixes that path:
//
//   - machine.GPUShmem (NVSHMEM): the device injects at issue;
//   - machine.StreamTriggered (stream-triggered MPI): the host
//     enqueues a descriptor on the PE's gpu.Stream, which fires it at
//     stream-dependency resolution;
//   - machine.MemChannel (RAMC memory channels): the write rides the
//     ordered runtime.Channel to its destination, and quiet drains
//     the channels.
//
// GPU execution is modeled with contexts (Ctx): every PE gets one
// kernel context, and ForkJoin spawns additional block contexts so
// workloads can express the thread-block-level concurrency that gives
// GPUs their messaging and compute throughput.
package shmem

import (
	"fmt"

	"msgroofline/internal/gpu"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Job is one SHMEM program: npes PEs with symmetric heaps, whose puts
// take one transport's path.
type Job struct {
	world *runtime.World
	t     machine.Transport
	tp    machine.TransportParams
	heap  *runtime.Segment
	pes   []*PE
	// put moves one validated put onto the wire; chosen from the
	// transport at construction.
	put func(c *Ctx, p runtime.Put, ch, ops int)
	// unordered is the DebugUnordered knob of the memory channels,
	// applied to each channel as it opens.
	unordered bool
}

// SetPutHook installs a delivery observer for user puts (internal
// barrier traffic excluded). Call before Launch.
func (j *Job) SetPutHook(h runtime.DeliveryHook) { j.heap.SetHook(h) }

// SetDebugUnordered deliberately breaks the ordering contract of the
// offloaded put paths — stream-triggered descriptors fire out of
// order, memory channels apply writes in wire order — so the
// conformance oracles can prove they catch it. Call before Launch.
func (j *Job) SetDebugUnordered(v bool) {
	j.unordered = v
	for _, pe := range j.pes {
		if pe.stream != nil {
			pe.stream.SetUnordered(v)
		}
	}
}

// SetDebugOriginGuard turns on the heap's origin-reuse guard: a put
// whose origin buffer changes before it lands panics with
// runtime.ErrOriginModified, so conformance can prove the put contract
// is checked (see runtime.Segment.SetOriginGuard). Call before Launch.
func (j *Job) SetDebugOriginGuard(v bool) { j.heap.SetOriginGuard(v) }

// transportNoun names each transport a Job can run on, as its
// missing-transport error words it.
var transportNoun = map[machine.Transport]string{
	machine.GPUShmem:        "GPU-initiated",
	machine.StreamTriggered: "stream-triggered",
	machine.MemChannel:      "memory-channel",
}

// NewJob builds an NVSHMEM job with npes PEs, each exposing heapBytes
// of symmetric memory. The machine must provide the GPUShmem transport.
func NewJob(cfg *machine.Config, npes, heapBytes int) (*Job, error) {
	return NewJobOn(cfg, machine.GPUShmem, npes, heapBytes, 1)
}

// NewJobOn builds a job whose puts take transport t's path (GPUShmem,
// StreamTriggered or MemChannel), with a -shards worker count for the
// underlying world (see runtime.NewWorldSharded: PEs are grouped by
// fabric node on the coupled conservative-lookahead engine, and
// shards sets how many node groups execute concurrently; results are
// byte-identical at every shard count).
func NewJobOn(cfg *machine.Config, t machine.Transport, npes, heapBytes, shards int) (*Job, error) {
	noun, ok := transportNoun[t]
	if !ok {
		return nil, fmt.Errorf("shmem: %s is not a symmetric-heap transport", t)
	}
	tp, ok := cfg.Params(t)
	if !ok {
		return nil, fmt.Errorf("shmem: machine %s has no %s transport", cfg.Name, noun)
	}
	if heapBytes < 0 {
		return nil, fmt.Errorf("shmem: negative heap size")
	}
	w, err := runtime.NewWorldSharded(cfg, npes, shards)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, npes)
	for i := range sizes {
		sizes[i] = heapBytes
	}
	heap, err := runtime.NewSegment(w, sizes)
	if err != nil {
		return nil, err
	}
	j := &Job{world: w, t: t, tp: tp, heap: heap, put: (*Ctx).injectNow}
	for id := 0; id < npes; id++ {
		j.pes = append(j.pes, &PE{
			job:     j,
			id:      id,
			ep:      w.Endpoint(id),
			barSig:  make([]uint64, 64),
			barCond: sim.NewCond(w.EngineOf(id)),
		})
	}
	switch t {
	case machine.StreamTriggered:
		j.put = (*Ctx).triggerOnStream
		for _, pe := range j.pes {
			pe.stream = gpu.NewStream(tp.TriggerLatency)
		}
	case machine.MemChannel:
		j.put = (*Ctx).writeChannel
	}
	return j, nil
}

// NPEs returns the number of PEs.
func (j *Job) NPEs() int { return len(j.pes) }

// World exposes the underlying simulated world.
func (j *Job) World() *runtime.World { return j.world }

// Digest folds the per-group event-order digests of the underlying
// world into one summary of the run (see runtime.World.Digest).
func (j *Job) Digest() uint64 { return j.world.Digest() }

// Elapsed returns the simulated time consumed so far.
func (j *Job) Elapsed() sim.Time { return j.world.Elapsed() }

// PE returns PE number i (for post-run inspection of heaps).
func (j *Job) PE(i int) *PE { return j.pes[i] }

// Launch starts one kernel context per PE running body and drives the
// simulation to completion.
func (j *Job) Launch(body func(c *Ctx)) error {
	for _, pe := range j.pes {
		p := pe
		j.world.Spawn(p.id, fmt.Sprintf("pe%d", p.id), func(proc *sim.Proc) {
			body(&Ctx{pe: p, proc: proc})
		})
	}
	return j.world.Run()
}

// PE is one processing element (a GPU, or a CPU rank on the
// memory-channel path) with its symmetric heap.
type PE struct {
	job *Job
	id  int
	ep  *runtime.Endpoint

	stream *gpu.Stream // StreamTriggered: the descriptor queue
	// MemChannel: the ordered channel to each destination, opened on
	// the first put to it (nil entries were never used).
	chans []*runtime.Channel

	// Internal barrier signal slots (per round), kept apart from the
	// heap so barrier traffic never wakes heap waiters.
	barSig  []uint64
	barCond *sim.Cond
	barSeq  int
}

// ID returns the PE number.
func (pe *PE) ID() int { return pe.id }

// Heap returns the PE's symmetric heap for direct local access.
func (pe *PE) Heap() []byte { return pe.job.heap.Local(pe.id) }

// Uint64At reads a little-endian uint64 at off in the local heap.
func (pe *PE) Uint64At(off int) uint64 { return pe.job.heap.Uint64At(pe.id, off) }

// OpStats returns cumulative put and atomic counts for this PE.
func (pe *PE) OpStats() (puts, atomics int64) { return pe.job.heap.OpStats(pe.id) }

// Outstanding returns the number of this PE's puts and barrier
// signals still in flight (conformance oracles check it is zero after
// Quiet and at exit). Memory-channel puts are tracked by their
// channels instead.
func (pe *PE) Outstanding() int { return pe.job.heap.InFlight(pe.id) }

// Stream returns the PE's device stream on the stream-triggered path
// (nil otherwise); its fire log feeds the stream-ordering oracle.
func (pe *PE) Stream() *gpu.Stream { return pe.stream }

// Channels returns the PE's outgoing channels, indexed by destination
// PE, on the memory-channel path (nil otherwise, and nil entries for
// destinations never written); their arrival logs feed the
// channel-FIFO oracle.
func (pe *PE) Channels() []*runtime.Channel { return pe.chans }

// channelTo returns the channel to dst, opening it on first use.
func (pe *PE) channelTo(dst int) *runtime.Channel {
	if pe.chans == nil {
		pe.chans = make([]*runtime.Channel, pe.job.NPEs())
	}
	c := pe.chans[dst]
	if c == nil {
		c = runtime.NewChannel(pe.ep, dst, pe.job.tp)
		c.SetUnordered(pe.job.unordered)
		pe.chans[dst] = c
	}
	return c
}

// Ctx is an execution context: the kernel main context created by
// Launch, or a block context created by ForkJoin. All communication
// is issued through a Ctx so concurrent blocks interleave correctly.
type Ctx struct {
	pe   *PE
	proc *sim.Proc
}

// PE returns the owning processing element.
func (c *Ctx) PE() *PE { return c.pe }

// MyPE returns the PE number (shmem_my_pe).
func (c *Ctx) MyPE() int { return c.pe.id }

// NPEs returns the job size (shmem_n_pes).
func (c *Ctx) NPEs() int { return c.pe.job.NPEs() }

// Proc exposes the simulated process (for Sleep etc.).
func (c *Ctx) Proc() *sim.Proc { return c.proc }

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Time { return c.proc.Now() }

// Compute blocks the context for d of SM time.
func (c *Ctx) Compute(d sim.Time) { c.proc.Sleep(d) }

// ForkJoin spawns n block contexts running body concurrently on this
// PE and blocks until all complete — the thread-block parallelism of
// a GPU kernel.
func (c *Ctx) ForkJoin(n int, body func(blk *Ctx, i int)) {
	if n <= 0 {
		return
	}
	// Block contexts belong to this PE, so they spawn on its engine.
	eng := c.proc.Engine()
	done := 0
	cond := sim.NewCond(eng)
	for i := 0; i < n; i++ {
		idx := i
		eng.Spawn(fmt.Sprintf("pe%d/blk%d", c.pe.id, idx), func(proc *sim.Proc) {
			body(&Ctx{pe: c.pe, proc: proc}, idx)
			done++
			cond.Broadcast()
		})
	}
	cond.WaitFor(c.proc, func() bool { return done == n })
}

// autoChannel asks a put path to take the PE's next round-robin
// injection channel at the point where its transport picks one.
const autoChannel = -1

// PutNBI starts a nonblocking put of data into dst's heap at dstOff
// (nvshmem_putmem_nbi). Completion is observed via Quiet. The put
// lands straight from data, so data must stay unchanged until Quiet
// (or Barrier) returns, as put_nbi requires; across node groups the
// rule is stricter (see runtime.Put.Land).
func (c *Ctx) PutNBI(dst, dstOff int, data []byte) {
	c.putNBIOn(dst, dstOff, data, runtime.NoSignal, 0, autoChannel, 1)
}

// PutSignalNBI is the fused put-with-signal
// (nvshmem_double_put_signal_nbi): data lands at dstOff, then the
// uint64 signal at sigOff is set to sigVal, ordered after the data.
// data must stay unchanged until Quiet returns or the target observes
// the signal.
func (c *Ctx) PutSignalNBI(dst, dstOff int, data []byte, sigOff int, sigVal uint64) {
	c.putNBIOn(dst, dstOff, data, sigOff, sigVal, autoChannel, 2)
}

// PutSignalNBICh is PutSignalNBI pinned to an injection channel, used
// by the message-splitting experiments to place sub-messages on
// distinct NVLink port groups.
func (c *Ctx) PutSignalNBICh(dst, dstOff int, data []byte, sigOff int, sigVal uint64, ch int) {
	c.putNBIOn(dst, dstOff, data, sigOff, sigVal, ch, 2)
}

func (c *Ctx) putNBIOn(dst, dstOff int, data []byte, sigOff int, sigVal uint64, ch, ops int) {
	job := c.pe.job
	job.put(c, job.heap.NewPut(c.pe.id, dst, dstOff, data, sigOff, sigVal), ch, ops)
}

// channel resolves a put's injection channel.
func (pe *PE) channel(ch int) int {
	if ch == autoChannel {
		return pe.ep.AutoChannel()
	}
	return ch
}

// injectNow is the NVSHMEM put path: the device charges ops (both the
// put and the signal issue of a fused operation) and injects at once.
func (c *Ctx) injectNow(p runtime.Put, ch, ops int) {
	pe := c.pe
	tp := pe.job.tp
	ch = pe.channel(ch)
	for i := 0; i < ops; i++ {
		pe.ep.ChargeOp(c.proc, tp)
	}
	// Split delivery: land on the target PE's engine, completion
	// accounting on this PE's.
	pe.ep.Inject(tp, p.Target(), p.Bytes(), ch, p.Land(c.proc.Now()), p.Track())
}

// triggerOnStream is the stream-triggered put path: the host pays the
// transport's OpsPerMsg enqueue ops (descriptor + doorbell), the
// PE's stream computes the fire time, and the injection runs at the
// fire — which the trace hook reports as the put's issue.
func (c *Ctx) triggerOnStream(p runtime.Put, ch, _ int) {
	pe := c.pe
	tp := pe.job.tp
	for i := 0; i < tp.OpsPerMsg; i++ {
		pe.ep.ChargeOp(c.proc, tp)
	}
	retire := p.Track()
	fire := pe.stream.Enqueue(c.proc.Now())
	wire := pe.channel(ch)
	dst, bytes, land := p.Target(), p.Bytes(), p.Land(fire)
	c.proc.Engine().At(fire, func() {
		pe.ep.Inject(tp, dst, bytes, wire, land, retire)
	})
}

// writeChannel is the memory-channel put path: the write rides the
// ordered channel toward its destination, whose Send charges the one
// op per message. The resequencer applies it after every earlier
// write on the channel — that ordering is the signal's correctness.
func (c *Ctx) writeChannel(p runtime.Put, ch, _ int) {
	pe := c.pe
	pe.channelTo(p.Target()).Send(c.proc, p.Bytes(), pe.channel(ch), p.Land(c.proc.Now()))
}

// Quiet blocks until all puts issued by this PE have completed
// remotely (nvshmem_quiet). The injecting paths charge one op; the
// memory-channel path's native fence is draining every used channel.
// All then wait out this PE's outstanding injections.
func (c *Ctx) Quiet() {
	pe := c.pe
	if pe.job.t == machine.MemChannel {
		for _, ch := range pe.chans {
			if ch != nil && ch.Sent() > 0 {
				ch.Drain(c.proc)
			}
		}
	} else {
		pe.ep.ChargeOp(c.proc, pe.job.tp)
	}
	pe.job.heap.WaitQuiet(c.proc, pe.id)
}

// WaitUntilAll blocks until every listed local signal slot equals
// val (nvshmem_uint64_wait_until_all).
func (c *Ctx) WaitUntilAll(sigOffs []int, val uint64) {
	c.pe.job.heap.WaitAll(c.proc, c.pe.id, sigOffs, val)
}

// WaitUntilAny blocks until at least one unmasked local signal slot
// equals val, and returns its index (nvshmem_uint64_wait_until_any).
// mask[i] true means slot i is already consumed and is skipped; the
// caller typically sets mask[i] after processing.
func (c *Ctx) WaitUntilAny(sigOffs []int, mask []bool, val uint64) int {
	return c.pe.job.heap.WaitAny(c.proc, c.pe.id, sigOffs, mask, val)
}

// AtomicCompareSwap performs a remote CAS on the uint64 at (dst, off):
// if it equals cond it becomes val; the previous value is returned
// (nvshmem_uint64_atomic_compare_swap). Blocks for the round trip.
func (c *Ctx) AtomicCompareSwap(dst, off int, cond, val uint64) uint64 {
	return c.pe.job.heap.CAS(c.proc, c.pe.job.tp, c.pe.id, dst, off, cond, val)
}

// AtomicFetchAdd atomically adds delta to the remote uint64 and
// returns the previous value (nvshmem_uint64_atomic_fetch_add).
func (c *Ctx) AtomicFetchAdd(dst, off int, delta uint64) uint64 {
	return c.pe.job.heap.FetchAdd(c.proc, c.pe.job.tp, c.pe.id, dst, off, delta)
}

// Barrier synchronizes all PEs (nvshmem_barrier_all): quiet, then a
// dissemination exchange over internal signal slots, paying
// log2(NPEs) small-message latencies.
func (c *Ctx) Barrier() {
	c.Quiet()
	n := c.NPEs()
	if n == 1 {
		return
	}
	pe := c.pe
	job := pe.job
	seq := pe.barSeq
	pe.barSeq++
	round := 0
	for k := 1; k < n; k <<= 1 {
		dst := job.pes[(pe.id+k)%n]
		slot := (seq*8 + round) % len(dst.barSig)
		gen := uint64(seq + 1)
		// Tiny internal message carrying the round signal; its
		// completion counts toward Quiet like a put's.
		pe.ep.ChargeOp(c.proc, job.tp)
		retire := job.heap.Track(pe.id, dst.id)
		pe.ep.Inject(job.tp, dst.id, 8, pe.ep.AutoChannel(), func(at sim.Time) {
			dst.barSig[slot] = gen
			dst.barCond.Broadcast()
		}, retire)
		mySlot := (seq*8 + round) % len(pe.barSig)
		pe.barCond.WaitFor(c.proc, func() bool { return pe.barSig[mySlot] >= gen })
		round++
	}
}
