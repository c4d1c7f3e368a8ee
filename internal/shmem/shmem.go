// Package shmem is the simulator's symmetric-heap runtime: a
// symmetric heap per PE, nonblocking puts, the fused put-with-signal
// operation the paper's GPU codes use (nvshmem_double_put_signal_nbi),
// signal waiting (wait_until_all / wait_until_any), remote atomics
// (compare-and-swap, fetch-and-add), quiet, and a dissemination
// barrier. Ring collectives live in the separate internal/ccl layer.
//
// A Job is built for one transport, which fixes how a put reaches the
// wire; everything else is shared:
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
	"encoding/binary"
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
	tp    machine.TransportParams
	pes   []*PE
	// put moves one validated put onto the wire; chosen from the
	// transport at construction.
	put func(c *Ctx, p putOp, data []byte, ch, ops int)
	// putHook, when set, observes every user put at delivery time.
	putHook PutHook
}

// PutHook observes a put: source PE, destination PE, payload size
// (including a ridden signal word), issue time and delivery time.
type PutHook func(src, dst int, bytes int64, issue, deliver sim.Time)

// SetPutHook installs a delivery observer for user puts (internal
// barrier traffic excluded). Call before Launch.
func (j *Job) SetPutHook(h PutHook) { j.putHook = h }

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
	j := &Job{world: w, tp: tp, put: (*Ctx).injectNow}
	for id := 0; id < npes; id++ {
		eng := w.EngineOf(id)
		pe := &PE{
			job:      j,
			id:       id,
			ep:       w.Endpoint(id),
			heap:     make([]byte, heapBytes),
			landed:   sim.NewCond(eng),
			quiesced: sim.NewCond(eng),
			barSig:   make([]uint64, 64),
			barCond:  sim.NewCond(eng),
		}
		pe.retire = func(sim.Time) {
			pe.outstanding--
			pe.quiesced.Broadcast()
		}
		j.pes = append(j.pes, pe)
	}
	switch t {
	case machine.StreamTriggered:
		j.put = (*Ctx).triggerOnStream
		for _, pe := range j.pes {
			pe.stream = gpu.NewStream(tp.TriggerLatency)
		}
	case machine.MemChannel:
		j.put = (*Ctx).writeChannel
		for _, pe := range j.pes {
			pe.chans = make([]*runtime.Channel, npes)
			for dst := range pe.chans {
				pe.chans[dst] = runtime.NewChannel(pe.ep, dst, tp)
			}
		}
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
	job  *Job
	id   int
	ep   *runtime.Endpoint
	heap []byte

	stream *gpu.Stream        // StreamTriggered: the descriptor queue
	chans  []*runtime.Channel // MemChannel: one ordered channel per destination

	outstanding int            // injected puts and barrier signals not yet delivered
	landed      *sim.Cond      // signaled when data lands in this PE's heap
	quiesced    *sim.Cond      // signaled when one of this PE's injections completes
	retire      func(sim.Time) // completion callback of this PE's injections

	barSig  []uint64 // internal barrier signal slots (per round)
	barCond *sim.Cond
	barSeq  int

	puts, atomics int64
}

// ID returns the PE number.
func (pe *PE) ID() int { return pe.id }

// Heap returns the PE's symmetric heap for direct local access.
func (pe *PE) Heap() []byte { return pe.heap }

// Uint64At reads a little-endian uint64 at off in the local heap.
func (pe *PE) Uint64At(off int) uint64 {
	return binary.LittleEndian.Uint64(pe.heap[off : off+8])
}

// SetUint64At writes a little-endian uint64 at off in the local heap.
func (pe *PE) SetUint64At(off int, v uint64) {
	binary.LittleEndian.PutUint64(pe.heap[off:off+8], v)
}

// OpStats returns cumulative put and atomic counts for this PE.
func (pe *PE) OpStats() (puts, atomics int64) { return pe.puts, pe.atomics }

// Outstanding returns the number of this PE's puts still in flight
// (conformance oracles check it is zero after Quiet and at exit).
// Memory-channel puts are tracked by their channels instead.
func (pe *PE) Outstanding() int { return pe.outstanding }

// Stream returns the PE's device stream on the stream-triggered path
// (nil otherwise); its fire log feeds the stream-ordering oracle.
func (pe *PE) Stream() *gpu.Stream { return pe.stream }

// Channels returns the PE's outgoing channels, indexed by destination
// PE, on the memory-channel path (nil otherwise); their arrival logs
// feed the channel-FIFO oracle.
func (pe *PE) Channels() []*runtime.Channel { return pe.chans }

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
// (nvshmem_putmem_nbi). Completion is observed via Quiet.
func (c *Ctx) PutNBI(dst, dstOff int, data []byte) {
	c.putNBIOn(dst, dstOff, data, -1, 0, autoChannel, 1)
}

// PutSignalNBI is the fused put-with-signal
// (nvshmem_double_put_signal_nbi): data lands at dstOff, then the
// uint64 signal at sigOff is set to sigVal, ordered after the data.
func (c *Ctx) PutSignalNBI(dst, dstOff int, data []byte, sigOff int, sigVal uint64) {
	c.putNBIOn(dst, dstOff, data, sigOff, sigVal, autoChannel, 2)
}

// PutSignalNBICh is PutSignalNBI pinned to an injection channel, used
// by the message-splitting experiments to place sub-messages on
// distinct NVLink port groups.
func (c *Ctx) PutSignalNBICh(dst, dstOff int, data []byte, sigOff int, sigVal uint64, ch int) {
	c.putNBIOn(dst, dstOff, data, sigOff, sigVal, ch, 2)
}

// putOp is one validated put: everything its delivery needs, fixed
// before the put takes its transport's path to the wire.
type putOp struct {
	src, dst *PE
	off      int
	sigOff   int // -1: no signal word
	sigVal   uint64
	bytes    int64 // payload plus the ridden signal word
}

func (c *Ctx) putNBIOn(dst, dstOff int, data []byte, sigOff int, sigVal uint64, ch, ops int) {
	pe := c.pe
	job := pe.job
	if dst < 0 || dst >= job.NPEs() {
		panic(fmt.Sprintf("shmem: put to invalid PE %d", dst))
	}
	target := job.pes[dst]
	if dstOff < 0 || dstOff+len(data) > len(target.heap) {
		panic(fmt.Sprintf("shmem: put [%d,%d) outside PE %d heap (%d bytes)",
			dstOff, dstOff+len(data), dst, len(target.heap)))
	}
	if sigOff >= 0 && sigOff+8 > len(target.heap) {
		panic(fmt.Sprintf("shmem: signal offset %d outside PE %d heap", sigOff, dst))
	}
	p := putOp{src: pe, dst: target, off: dstOff, sigOff: sigOff, sigVal: sigVal, bytes: int64(len(data))}
	if sigOff >= 0 {
		p.bytes += 8 // the signal word rides the same message
	}
	pe.puts++
	job.put(c, p, data, ch, ops)
}

// land builds the delivery callback of one put from its final values
// (capturing nothing that changes later keeps it one allocation): heap
// write, signal word, hook and target wake, all on the target PE's
// engine.
func (p putOp) land(buf []byte, issue sim.Time) func(at sim.Time) {
	return func(at sim.Time) {
		copy(p.dst.heap[p.off:], buf)
		runtime.ReleaseBuf(buf)
		if p.sigOff >= 0 {
			p.dst.SetUint64At(p.sigOff, p.sigVal)
		}
		if h := p.src.job.putHook; h != nil {
			h(p.src.id, p.dst.id, p.bytes, issue, at)
		}
		p.dst.landed.Broadcast()
	}
}

// channel resolves a put's injection channel.
func (pe *PE) channel(ch int) int {
	if ch == autoChannel {
		return pe.ep.AutoChannel()
	}
	return ch
}

// stage copies a put's payload into a pooled buffer that the delivery
// callback writes into the target heap and releases.
func stage(data []byte) []byte {
	buf := runtime.BorrowBuf(len(data))
	copy(buf, data)
	return buf
}

// injectNow is the NVSHMEM put path: the device charges ops (both the
// put and the signal issue of a fused operation) and injects at once.
func (c *Ctx) injectNow(p putOp, data []byte, ch, ops int) {
	pe := c.pe
	tp := pe.job.tp
	ch = pe.channel(ch)
	for i := 0; i < ops; i++ {
		pe.ep.ChargeOp(c.proc, tp)
	}
	buf := stage(data)
	pe.outstanding++
	// Split delivery: land on the target PE's engine, completion
	// accounting on this PE's.
	pe.ep.Inject(tp, p.dst.id, p.bytes, ch, p.land(buf, c.proc.Now()), pe.retire)
}

// triggerOnStream is the stream-triggered put path: the host pays the
// transport's OpsPerMsg enqueue ops (descriptor + doorbell), the
// PE's stream computes the fire time, and the injection runs at the
// fire — which the trace hook reports as the put's issue.
func (c *Ctx) triggerOnStream(p putOp, data []byte, ch, _ int) {
	pe := c.pe
	tp := pe.job.tp
	for i := 0; i < tp.OpsPerMsg; i++ {
		pe.ep.ChargeOp(c.proc, tp)
	}
	buf := stage(data)
	pe.outstanding++
	fire := pe.stream.Enqueue(c.proc.Now())
	wire := pe.channel(ch)
	land := p.land(buf, fire)
	c.proc.Engine().At(fire, func() {
		pe.ep.Inject(tp, p.dst.id, p.bytes, wire, land, pe.retire)
	})
}

// writeChannel is the memory-channel put path: the write rides the
// ordered channel toward its destination, whose Send charges the one
// op per message. The resequencer applies it after every earlier
// write on the channel — that ordering is the signal's correctness.
func (c *Ctx) writeChannel(p putOp, data []byte, ch, _ int) {
	pe := c.pe
	buf := stage(data)
	issue := c.proc.Now()
	pe.chans[p.dst.id].Send(c.proc, p.bytes, pe.channel(ch), p.land(buf, issue))
}

// Quiet blocks until all puts issued by this PE have completed
// remotely (nvshmem_quiet). The injecting paths charge one op; the
// memory-channel path's native fence is draining every used channel.
// All then wait out this PE's outstanding injections.
func (c *Ctx) Quiet() {
	pe := c.pe
	if pe.chans != nil {
		for _, ch := range pe.chans {
			if ch.Sent() > 0 {
				ch.Drain(c.proc)
			}
		}
	} else {
		pe.ep.ChargeOp(c.proc, pe.job.tp)
	}
	pe.quiesced.WaitFor(c.proc, func() bool { return pe.outstanding == 0 })
}

// WaitUntilAll blocks until every listed local signal slot equals
// val (nvshmem_uint64_wait_until_all).
func (c *Ctx) WaitUntilAll(sigOffs []int, val uint64) {
	c.pe.landed.WaitFor(c.proc, func() bool {
		for _, off := range sigOffs {
			if c.pe.Uint64At(off) != val {
				return false
			}
		}
		return true
	})
}

// WaitUntilAny blocks until at least one unmasked local signal slot
// equals val, and returns its index (nvshmem_uint64_wait_until_any).
// mask[i] true means slot i is already consumed and is skipped; the
// caller typically sets mask[i] after processing.
func (c *Ctx) WaitUntilAny(sigOffs []int, mask []bool, val uint64) int {
	found := -1
	c.pe.landed.WaitFor(c.proc, func() bool {
		for i, off := range sigOffs {
			if mask != nil && mask[i] {
				continue
			}
			if c.pe.Uint64At(off) == val {
				found = i
				return true
			}
		}
		return false
	})
	return found
}

// AtomicCompareSwap performs a remote CAS on the uint64 at (dst, off):
// if it equals cond it becomes val; the previous value is returned
// (nvshmem_uint64_atomic_compare_swap). Blocks for the round trip.
func (c *Ctx) AtomicCompareSwap(dst, off int, cond, val uint64) uint64 {
	target := c.pe.job.pes[dst]
	c.pe.atomics++
	return c.pe.ep.RemoteAtomic(c.proc, c.pe.job.tp, dst, func() uint64 {
		old := target.Uint64At(off)
		if old == cond {
			target.SetUint64At(off, val)
		}
		return old
	})
}

// AtomicFetchAdd atomically adds delta to the remote uint64 and
// returns the previous value (nvshmem_uint64_atomic_fetch_add).
func (c *Ctx) AtomicFetchAdd(dst, off int, delta uint64) uint64 {
	target := c.pe.job.pes[dst]
	c.pe.atomics++
	return c.pe.ep.RemoteAtomic(c.proc, c.pe.job.tp, dst, func() uint64 {
		old := target.Uint64At(off)
		target.SetUint64At(off, old+delta)
		return old
	})
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
		// Tiny internal message carrying the round signal.
		pe.ep.ChargeOp(c.proc, job.tp)
		pe.outstanding++
		pe.ep.Inject(job.tp, dst.id, 8, pe.ep.AutoChannel(), func(at sim.Time) {
			dst.barSig[slot] = gen
			dst.barCond.Broadcast()
		}, pe.retire)
		mySlot := (seq*8 + round) % len(pe.barSig)
		pe.barCond.WaitFor(c.proc, func() bool { return pe.barSig[mySlot] >= gen })
		round++
	}
}
