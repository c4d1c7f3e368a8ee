package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Win is an MPI-3 RMA window: one exposed memory region per rank plus
// the bookkeeping for completion (flush/fence) semantics. Windows are
// created on the communicator before Launch (setup phase), mirroring
// a collective MPI_Win_create executed at startup.
type Win struct {
	comm *Comm
	bufs [][]byte

	// outstanding[origin][target] counts puts issued by origin that
	// have not yet landed in target memory. Issued and completed on
	// the origin's engine (the local half of the delivery split).
	outstanding [][]int
	// originDone[origin] is signaled whenever one of origin's puts
	// completes remotely (flush waits on it); bound to origin's engine.
	originDone []*sim.Cond
	// targetDone[target] is signaled whenever any put or accumulate
	// lands in target's memory (receivers poll on it); bound to
	// target's engine.
	targetDone []*sim.Cond

	// Per-origin-rank op counters (rank-confined; OpStats sums them).
	puts, gets, atomics []int64
	// hook, when set, observes every put at delivery time, running on
	// the target's engine — it must be safe under parallel windows.
	hook MsgHook
}

// SetHook installs a hook observing puts (data landing in target
// memory). Call before Launch.
func (w *Win) SetHook(h MsgHook) { w.hook = h }

// NewWin collectively creates a window exposing localSize bytes on
// every rank. Call before Launch.
func (c *Comm) NewWin(localSize int) (*Win, error) {
	sizes := make([]int, c.Size())
	for i := range sizes {
		sizes[i] = localSize
	}
	return c.NewWinSizes(sizes)
}

// NewWinSizes creates a window with a per-rank exposed size (ranks
// may expose different amounts, as SpTRSV does for its solution and
// signal buffers).
func (c *Comm) NewWinSizes(sizes []int) (*Win, error) {
	if !c.has1s {
		return nil, fmt.Errorf("mpi: machine has no one-sided transport")
	}
	if len(sizes) != c.Size() {
		return nil, fmt.Errorf("mpi: NewWinSizes needs %d sizes, got %d", c.Size(), len(sizes))
	}
	w := &Win{
		comm:    c,
		puts:    make([]int64, c.Size()),
		gets:    make([]int64, c.Size()),
		atomics: make([]int64, c.Size()),
	}
	for r, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("mpi: rank %d: negative window size", r)
		}
		w.bufs = append(w.bufs, make([]byte, s))
		w.outstanding = append(w.outstanding, make([]int, c.Size()))
		w.originDone = append(w.originDone, sim.NewCond(c.world.EngineOf(r)))
		w.targetDone = append(w.targetDone, sim.NewCond(c.world.EngineOf(r)))
	}
	c.wins = append(c.wins, w)
	return w, nil
}

// Local returns rank's exposed memory for direct local access (the
// PGAS view of one's own window).
func (w *Win) Local(rank int) []byte { return w.bufs[rank] }

// OpStats reports cumulative one-sided operation counts (summed over
// the per-rank counters; call between runs or after Launch returns).
func (w *Win) OpStats() (puts, gets, atomics int64) {
	for r := range w.puts {
		puts += w.puts[r]
		gets += w.gets[r]
		atomics += w.atomics[r]
	}
	return puts, gets, atomics
}

// Put starts a nonblocking RMA put of data into dst's window at
// dstOff. Completion at the target is observed via Flush (origin
// side) or by the target polling its memory/signals.
func (r *Rank) Put(w *Win, dst, dstOff int, data []byte) {
	ch := r.ep.AutoChannel()
	w.checkRange(dst, dstOff, len(data))
	r.ep.ChargeOp(r.proc, r.comm.one)
	n := int64(len(data))
	buf := runtime.BorrowBuf(len(data))
	copy(buf, data)
	origin := r.id
	w.outstanding[origin][dst]++
	w.puts[origin]++
	r.sendCount++
	issue := r.proc.Now()
	// Split delivery: the target-memory write, hook and target signal
	// run on dst's engine; the outstanding-count completion and origin
	// signal run on the origin's engine at the same instant.
	r.ep.Inject(r.comm.one, dst, n, ch, func(at sim.Time) {
		copy(w.bufs[dst][dstOff:], buf)
		runtime.ReleaseBuf(buf)
		if w.hook != nil {
			w.hook(origin, dst, n, issue, at)
		}
		w.targetDone[dst].Broadcast()
	}, func(at sim.Time) {
		w.outstanding[origin][dst]--
		w.originDone[origin].Broadcast()
	})
}

// Get fetches n bytes from src's window at srcOff. It blocks until
// the data arrives (put semantics reversed: a request flight, then
// the payload rides the fabric back reserving reverse-path links).
func (r *Rank) Get(w *Win, src, srcOff, n int) []byte {
	w.checkRange(src, srcOff, n)
	r.ep.ChargeOp(r.proc, r.comm.one)
	me := r.id
	w.gets[me]++
	world := r.comm.world
	now := r.proc.Now()
	reqArrive := now + r.ep.WireLatency(src) + r.comm.one.SoftLatency/2
	var out []byte
	srcEp := world.Endpoint(src)
	// serve runs on src's engine (owner-computes): read the exposed
	// memory there and inject the payload back toward the origin.
	serve := func() {
		data := make([]byte, n)
		copy(data, w.bufs[src][srcOff:srcOff+n])
		srcEp.Inject(r.comm.one, me, int64(n), srcEp.AutoChannel(), func(at sim.Time) {
			out = data
			w.originDone[me].Broadcast()
		}, nil)
	}
	if world.GroupOf(me) == world.GroupOf(src) {
		world.EngineOf(me).At(reqArrive, serve)
	} else {
		// Cross-group: route the request through the barrier so the
		// event lands on src's engine without racing its window. The
		// request flight is at least one link latency, so reqArrive is
		// past the window bound by construction.
		world.Coupled().Defer(me, now, func() {
			world.Coupled().At(src, reqArrive, serve)
		})
	}
	w.originDone[me].WaitFor(r.proc, func() bool { return out != nil })
	return out
}

// Flush blocks until every put this rank issued to dst has completed
// in dst's memory (MPI_Win_flush).
func (r *Rank) Flush(w *Win, dst int) {
	r.ep.ChargeOp(r.proc, r.comm.one)
	w.originDone[r.id].WaitFor(r.proc, func() bool {
		return w.outstanding[r.id][dst] == 0
	})
}

// FlushAll blocks until every put this rank issued to any target has
// completed (MPI_Win_flush_all).
func (r *Rank) FlushAll(w *Win) {
	r.ep.ChargeOp(r.proc, r.comm.one)
	w.originDone[r.id].WaitFor(r.proc, func() bool {
		for _, n := range w.outstanding[r.id] {
			if n != 0 {
				return false
			}
		}
		return true
	})
}

// FlushLocal completes puts locally (the origin buffer is reusable);
// with the eager/copying model this costs only the library call
// (MPI_Win_flush_local).
func (r *Rank) FlushLocal(w *Win, dst int) {
	r.ep.ChargeOp(r.proc, r.comm.one)
}

// Fence is the BSP-style access epoch boundary (MPI_Win_fence): each
// rank completes its outstanding puts everywhere, then all ranks
// synchronize on a barrier; when Fence returns, every put issued
// before the fence (by anyone) is visible everywhere.
func (r *Rank) Fence(w *Win) {
	r.FlushAll(w)
	r.Barrier()
}

// TargetSignal returns the condition signaled whenever RMA traffic
// lands in rank's window memory; receiver-side polling loops (the
// paper's Listing 1) wait on it instead of burning simulated cycles
// in a spin loop, then charge their scan cost explicitly.
func (w *Win) TargetSignal(rank int) *sim.Cond { return w.targetDone[rank] }

// Uint64At reads the little-endian uint64 at off in rank's window.
func (w *Win) Uint64At(rank, off int) uint64 {
	return binary.LittleEndian.Uint64(w.bufs[rank][off : off+8])
}

// SetUint64At writes v at off in rank's window (local initialization).
func (w *Win) SetUint64At(rank, off int, v uint64) {
	binary.LittleEndian.PutUint64(w.bufs[rank][off:off+8], v)
}

// CompareAndSwap atomically compares the uint64 at (dst, dstOff) with
// compare and, if equal, replaces it with swap. It returns the value
// observed before the operation (MPI_Compare_and_swap). The caller
// blocks for the full atomic round trip.
func (r *Rank) CompareAndSwap(w *Win, dst, dstOff int, compare, swap uint64) uint64 {
	w.checkRange(dst, dstOff, 8)
	w.atomics[r.id]++
	return r.ep.RemoteAtomic(r.proc, r.comm.one, dst, func() uint64 {
		old := w.Uint64At(dst, dstOff)
		if old == compare {
			w.SetUint64At(dst, dstOff, swap)
		}
		return old
	})
}

// FetchAndAdd atomically adds delta to the uint64 at (dst, dstOff)
// and returns the previous value (MPI_Fetch_and_op with MPI_SUM).
func (r *Rank) FetchAndAdd(w *Win, dst, dstOff int, delta uint64) uint64 {
	w.checkRange(dst, dstOff, 8)
	w.atomics[r.id]++
	return r.ep.RemoteAtomic(r.proc, r.comm.one, dst, func() uint64 {
		old := w.Uint64At(dst, dstOff)
		w.SetUint64At(dst, dstOff, old+delta)
		return old
	})
}

func (w *Win) checkRange(rank, off, n int) {
	if rank < 0 || rank >= len(w.bufs) {
		panic(fmt.Sprintf("mpi: window access to invalid rank %d", rank))
	}
	if off < 0 || off+n > len(w.bufs[rank]) {
		panic(fmt.Sprintf("mpi: window access [%d, %d) outside rank %d's %d-byte region",
			off, off+n, rank, len(w.bufs[rank])))
	}
}

// PutNotify is the extension operation of the paper's conclusion:
// hardware-level put-with-signal (foMPI-style notified access). The
// data and the uint64 notification value land in the target window in
// one fused operation — one flight, one remote-completion event —
// instead of the standard 4-op put/flush/put/flush protocol. It
// requires the machine's NotifiedAccess transport.
func (r *Rank) PutNotify(w *Win, dst, dstOff int, data []byte, sigOff int, sigVal uint64) error {
	if !r.comm.hasNtf {
		return fmt.Errorf("mpi: machine has no notified-access transport")
	}
	w.checkRange(dst, dstOff, len(data))
	w.checkRange(dst, sigOff, 8)
	tp := r.comm.ntf
	// Fused operation: both halves charged at the origin.
	r.ep.ChargeOp(r.proc, tp)
	r.ep.ChargeOp(r.proc, tp)
	n := int64(len(data))
	buf := runtime.BorrowBuf(len(data))
	copy(buf, data)
	origin := r.id
	w.outstanding[origin][dst]++
	w.puts[origin]++
	r.sendCount++
	issue := r.proc.Now()
	r.ep.Inject(tp, dst, n+8, r.ep.AutoChannel(), func(at sim.Time) {
		copy(w.bufs[dst][dstOff:], buf)
		runtime.ReleaseBuf(buf)
		w.SetUint64At(dst, sigOff, sigVal)
		if w.hook != nil {
			w.hook(origin, dst, n+8, issue, at)
		}
		w.targetDone[dst].Broadcast()
	}, func(at sim.Time) {
		w.outstanding[origin][dst]--
		w.originDone[origin].Broadcast()
	})
	return nil
}

// WaitNotify blocks until the uint64 notification at sigOff in this
// rank's window equals val — the receiver side of notified access,
// with no user polling loop to pay for.
func (r *Rank) WaitNotify(w *Win, sigOff int, val uint64) {
	w.targetDone[r.id].WaitFor(r.proc, func() bool {
		return w.Uint64At(r.id, sigOff) == val
	})
}

// WaitNotifyAny blocks until any unmasked notification slot equals
// val and returns its index (the notified-access counterpart of
// nvshmem_wait_until_any).
func (r *Rank) WaitNotifyAny(w *Win, sigOffs []int, mask []bool, val uint64) int {
	found := -1
	w.targetDone[r.id].WaitFor(r.proc, func() bool {
		for i, off := range sigOffs {
			if mask != nil && mask[i] {
				continue
			}
			if w.Uint64At(r.id, off) == val {
				found = i
				return true
			}
		}
		return false
	})
	return found
}

// Accumulate performs a nonblocking element-wise float64 sum of data
// into dst's window at dstOff (MPI_Accumulate with MPI_SUM). Like all
// RMA accumulates, concurrent Accumulates to the same location are
// applied atomically with respect to each other (they execute at
// delivery time on the target's own engine, owner-computes).
func (r *Rank) Accumulate(w *Win, dst, dstOff int, data []float64) {
	n := 8 * len(data)
	w.checkRange(dst, dstOff, n)
	r.ep.ChargeOp(r.proc, r.comm.one)
	vals := make([]float64, len(data))
	copy(vals, data)
	origin := r.id
	w.outstanding[origin][dst]++
	w.puts[origin]++
	r.sendCount++
	issue := r.proc.Now()
	r.ep.Inject(r.comm.one, dst, int64(n), r.ep.AutoChannel(), func(at sim.Time) {
		for i, v := range vals {
			off := dstOff + 8*i
			cur := math.Float64frombits(binary.LittleEndian.Uint64(w.bufs[dst][off:]))
			binary.LittleEndian.PutUint64(w.bufs[dst][off:], math.Float64bits(cur+v))
		}
		if w.hook != nil {
			w.hook(origin, dst, int64(n), issue, at)
		}
		w.targetDone[dst].Broadcast()
	}, func(at sim.Time) {
		w.outstanding[origin][dst]--
		w.originDone[origin].Broadcast()
	})
}
