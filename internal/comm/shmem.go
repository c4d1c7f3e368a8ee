package comm

import (
	"fmt"

	"msgroofline/internal/gpu"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

// heapKinds maps the three symmetric-heap kinds onto the
// internal/shmem put path each one runs:
//
//   - Shmem: NVSHMEM put_signal_nbi, injected at issue (k=2: payload
//     and signal charged as one fused 2-op flight), with fork/join
//     thread-block contexts;
//   - StreamTriggered: the host enqueues each put as a descriptor on
//     the rank's device stream for a near-zero op overhead, and the
//     trigger engine fires it once its stream predecessor completed —
//     the o/L split inverts relative to host-driven stacks;
//   - MemChannel: every (src,dst) pair talks over an ordered
//     runtime.Channel, so ordering replaces per-op completion (one op
//     per message) and Quiet is channel drainage.
//
// All three share the runtime's wait_until_* receivers, blocking
// atomics, dissemination barrier and trace hook; the signal word
// rides the payload flight (+8 bytes). missing names an offloaded
// transport in this package's error for a machine that lacks it;
// internal/shmem reports a missing GPU-initiated transport itself.
var heapKinds = map[Kind]struct {
	transport machine.Transport
	missing   string
}{
	Shmem:           {machine.GPUShmem, ""},
	StreamTriggered: {machine.StreamTriggered, "stream-triggered"},
	MemChannel:      {machine.MemChannel, "memory-channel"},
}

// shmemT is a comm transport over one internal/shmem job.
type shmemT struct {
	base
	j *shmem.Job
	// sigBase is the heap offset of the signal area (exchange and
	// stream modes).
	sigBase int
}

// streamT is the stream-triggered shmemT; only it exposes streams.
type streamT struct{ *shmemT }

// Stream exposes a rank's device stream for the conformance
// stream-ordering oracle (StreamInspector).
func (t streamT) Stream(rank int) *gpu.Stream { return t.j.PE(rank).Stream() }

// memChanT is the memory-channel shmemT; only it exposes channels.
type memChanT struct{ *shmemT }

// Channels exposes a rank's outgoing channels for the conformance
// channel-FIFO oracle (ChannelInspector).
func (t memChanT) Channels(rank int) []*runtime.Channel { return t.j.PE(rank).Channels() }

// heapGeometry sizes the per-rank symmetric heap for the spec's slot
// geometry and returns the offset of its signal area.
func (s Spec) heapGeometry() (heap, sigBase int) {
	switch {
	case s.ExchangeSlots > 0:
		// 2 parities x K data slots, then 2 parities x K signals.
		sigBase = 2 * s.ExchangeSlots * s.SlotBytes
		heap = sigBase + 2*s.ExchangeSlots*8
	case s.StreamSlots != nil:
		maxSlots := 0
		for _, n := range s.StreamSlots {
			maxSlots = max(maxSlots, n)
		}
		sigBase = s.SlotBytes * maxSlots
		heap = sigBase + 8*maxSlots + 64
	case s.SharedBytes > 0:
		heap = s.SharedBytes
	}
	return heap, sigBase
}

func newShmem(spec Spec) (Transport, error) {
	hk := heapKinds[spec.Kind]
	if _, ok := spec.Machine.Params(hk.transport); !ok && hk.missing != "" {
		return nil, fmt.Errorf("comm: machine %s has no %s transport", spec.Machine.Name, hk.missing)
	}
	heap, sigBase := spec.heapGeometry()
	j, err := shmem.NewJobOn(spec.Machine, hk.transport, spec.Ranks, heap, spec.Shards)
	if err != nil {
		return nil, err
	}
	spec.applyChaos(j.World(), j.World().Inst.Net)
	j.SetDebugUnordered(spec.DebugUnordered)
	t := &shmemT{base: base{spec: spec}, j: j, sigBase: sigBase}
	if hook := t.attachTrace(); hook != nil {
		j.SetPutHook(hook)
	}
	switch spec.Kind {
	case StreamTriggered:
		return streamT{t}, nil
	case MemChannel:
		return memChanT{t}, nil
	}
	return t, nil
}

func (t *shmemT) Kind() Kind        { return t.spec.Kind }
func (t *shmemT) Caps() Caps        { return Caps{Atomics: true, Fused: true} }
func (t *shmemT) Digest() uint64    { return t.j.Digest() }
func (t *shmemT) Elapsed() sim.Time { return t.j.Elapsed() }

func (t *shmemT) SharedBytes(pe int) []byte { return t.j.PE(pe).Heap() }

func (t *shmemT) AtomicCount() int64 {
	var total int64
	for pe := 0; pe < t.spec.Ranks; pe++ {
		_, atomics := t.j.PE(pe).OpStats()
		total += atomics
	}
	return total
}

func (t *shmemT) Launch(body func(Endpoint)) error {
	return t.j.Launch(func(c *shmem.Ctx) { body(t.newEp(c)) })
}

func (t *shmemT) newEp(c *shmem.Ctx) *shEp {
	ep := &shEp{t: t, c: c}
	if t.spec.StreamSlots != nil {
		expected := t.spec.StreamSlots[c.MyPE()]
		ep.mask = make([]bool, expected)
		ep.sigs = make([]int, expected)
		for i := range ep.sigs {
			ep.sigs[i] = t.sigBase + 8*i
		}
	}
	return ep
}

type shEp struct {
	t *shmemT
	c *shmem.Ctx

	// Streamed-delivery receive state (shared with fork/join lanes).
	mask []bool
	sigs []int
}

func (e *shEp) Rank() int          { return e.c.MyPE() }
func (e *shEp) Size() int          { return e.t.spec.Ranks }
func (e *shEp) Caps() Caps         { return e.t.Caps() }
func (e *shEp) Now() sim.Time      { return e.c.Now() }
func (e *shEp) Compute(d sim.Time) { e.c.Compute(d) }
func (e *shEp) Barrier()           { e.c.Barrier() }
func (e *shEp) Quiet()             { e.c.Quiet() }

// Exchange runs one epoch of put-with-signal toward each peer slot
// and wait_until_all on this rank's expected signals — no barrier,
// parity double-buffering keeps epochs from colliding.
func (e *shEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	t := e.t
	k, stride, sigBase := t.spec.ExchangeSlots, t.spec.SlotBytes, t.sigBase
	parity := epoch % 2
	for _, m := range sends {
		e.c.PutSignalNBI(m.Peer, (parity*k+m.Slot)*stride, m.Data,
			sigBase+(parity*k+m.Slot)*8, uint64(epoch+1))
	}
	sigs := make([]int, 0, len(recvs))
	for _, x := range recvs {
		sigs = append(sigs, sigBase+(parity*k+x.Slot)*8)
	}
	e.c.WaitUntilAll(sigs, uint64(epoch+1))
	t.sync()
	heap := e.c.PE().Heap()
	out := make([][]byte, len(recvs))
	for i, x := range recvs {
		off := (parity*k + x.Slot) * stride
		out[i] = heap[off : off+x.Bytes]
	}
	return out
}

// Deliver is one fused put-with-signal (k=2) on the kind's put path.
func (e *shEp) Deliver(peer, slot int, data []byte) {
	stride := e.t.spec.SlotBytes
	e.c.PutSignalNBI(peer, slot*stride, data, e.t.sigBase+8*slot, 1)
}

// WaitAnySlot is nvshmem_wait_until_any over the unmasked signals.
func (e *shEp) WaitAnySlot() (int, []byte) {
	i := e.c.WaitUntilAny(e.sigs, e.mask, 1)
	e.mask[i] = true
	e.t.sync()
	stride := e.t.spec.SlotBytes
	return i, e.c.PE().Heap()[i*stride : (i+1)*stride]
}

func (e *shEp) CAS(peer, off int, compare, swap uint64) uint64 {
	return e.c.AtomicCompareSwap(peer, off, compare, swap)
}

func (e *shEp) FetchAdd(peer, off int, delta uint64) uint64 {
	return e.c.AtomicFetchAdd(peer, off, delta)
}

// FlushLocal is a no-op: blocking atomics are complete when they
// return, and puts complete by stream or channel order, with no
// separate local-completion op to charge.
func (e *shEp) FlushLocal(int) {}

// Lanes is want on shmem (GPU thread-block contexts) and 1 on the
// offloaded kinds: their puts serialize through one device stream or
// one channel per destination, so lanes would not add concurrency.
func (e *shEp) Lanes(want int) int {
	if e.t.spec.Kind == Shmem {
		return want
	}
	return 1
}

// ForkJoin spreads body over lanes concurrent thread-block contexts on
// shmem and runs it inline on the offloaded kinds (spawning contexts
// there would change the event order).
func (e *shEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	if e.t.spec.Kind != Shmem {
		for i := 0; i < lanes; i++ {
			body(e, i)
		}
		return
	}
	e.c.ForkJoin(lanes, func(blk *shmem.Ctx, bi int) {
		body(&shEp{t: e.t, c: blk, mask: e.mask, sigs: e.sigs}, bi)
	})
}

func (e *shEp) BcastPut([]byte)       { panic(e.noBroadcast()) }
func (e *shEp) CollectPuts() [][]byte { panic(e.noBroadcast()) }

func (e *shEp) noBroadcast() string {
	return fmt.Sprintf("comm: %s updates remotely with atomics (gate on Caps().Atomics)", e.t.spec.Kind)
}
