package mpi

import (
	"fmt"

	"msgroofline/internal/runtime"
)

// Win is an MPI-3 RMA window: one exposed memory region per rank.
// Windows are created on the communicator before Launch (setup phase),
// mirroring a collective MPI_Win_create executed at startup. The
// region, its bounds checks, landings, completion counts, atomics and
// notification waits are a runtime.Segment; this package adds only
// MPI's op charging and transport choice.
type Win struct {
	seg *runtime.Segment
}

// SetHook installs a hook observing puts (data landing in target
// memory, on the target's engine). Call before Launch.
func (w *Win) SetHook(h runtime.DeliveryHook) { w.seg.SetHook(h) }

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
	seg, err := runtime.NewSegment(c.world, sizes)
	if err != nil {
		return nil, fmt.Errorf("mpi: window: %w", err)
	}
	return &Win{seg: seg}, nil
}

// Local returns rank's exposed memory for direct local access (the
// PGAS view of one's own window).
func (w *Win) Local(rank int) []byte { return w.seg.Local(rank) }

// OpStats reports cumulative one-sided operation counts summed over
// the ranks (call between runs or after Launch returns).
func (w *Win) OpStats() (puts, atomics int64) {
	for r := range w.seg.Size() {
		p, a := w.seg.OpStats(r)
		puts += p
		atomics += a
	}
	return puts, atomics
}

// Uint64At reads the little-endian uint64 at off in rank's window.
func (w *Win) Uint64At(rank, off int) uint64 { return w.seg.Uint64At(rank, off) }

// Put starts a nonblocking RMA put of data into dst's window at
// dstOff: one op. Completion at the target is observed via Flush
// (origin side) or by the target polling its memory/signals. The put
// lands straight from data, so data must stay unchanged until the put
// completes remotely (Flush, FlushAll or Fence returns, or the target
// observes it); FlushLocal does not release it. Across node groups
// the rule is stricter; see runtime.Put.Land.
func (r *Rank) Put(w *Win, dst, dstOff int, data []byte) {
	ch := r.ep.AutoChannel()
	put := w.seg.NewPut(r.id, dst, dstOff, data, runtime.NoSignal, 0)
	r.ep.ChargeOp(r.proc, r.comm.one)
	r.ep.Inject(r.comm.one, dst, put.Bytes(), ch, put.Land(r.proc.Now()), put.Track())
}

// PutNotify is the extension operation of the paper's conclusion:
// hardware-level put-with-signal (foMPI-style notified access). The
// data and the uint64 notification value land in the target window in
// one fused operation — one flight, one remote-completion event, both
// halves charged at the origin (2 ops) — instead of the standard 4-op
// put/flush/put/flush protocol. It requires the machine's
// NotifiedAccess transport. As with Put, data must stay unchanged
// until the put completes remotely.
func (r *Rank) PutNotify(w *Win, dst, dstOff int, data []byte, sigOff int, sigVal uint64) error {
	if !r.comm.hasNtf {
		return fmt.Errorf("mpi: machine has no notified-access transport")
	}
	put := w.seg.NewPut(r.id, dst, dstOff, data, sigOff, sigVal)
	tp := r.comm.ntf
	r.ep.ChargeOp(r.proc, tp)
	r.ep.ChargeOp(r.proc, tp)
	r.ep.Inject(tp, dst, put.Bytes(), r.ep.AutoChannel(), put.Land(r.proc.Now()), put.Track())
	return nil
}

// Flush blocks until every put this rank issued to dst has completed
// in dst's memory (MPI_Win_flush).
func (r *Rank) Flush(w *Win, dst int) {
	r.ep.ChargeOp(r.proc, r.comm.one)
	w.seg.WaitFlushed(r.proc, r.id, dst)
}

// FlushAll blocks until every put this rank issued to any target has
// completed (MPI_Win_flush_all).
func (r *Rank) FlushAll(w *Win) {
	r.ep.ChargeOp(r.proc, r.comm.one)
	w.seg.WaitQuiet(r.proc, r.id)
}

// FlushLocal is MPI_Win_flush_local: it charges only the library
// call. Puts land straight from their origin buffers, so it does not
// make them reusable early; that still takes remote completion (Flush,
// FlushAll or Fence).
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

// CompareAndSwap atomically compares the uint64 at (dst, dstOff) with
// compare and, if equal, replaces it with swap. It returns the value
// observed before the operation (MPI_Compare_and_swap). The caller
// blocks for the full atomic round trip.
func (r *Rank) CompareAndSwap(w *Win, dst, dstOff int, compare, swap uint64) uint64 {
	return w.seg.CAS(r.proc, r.comm.one, r.id, dst, dstOff, compare, swap)
}

// FetchAndAdd atomically adds delta to the uint64 at (dst, dstOff)
// and returns the previous value (MPI_Fetch_and_op with MPI_SUM).
func (r *Rank) FetchAndAdd(w *Win, dst, dstOff int, delta uint64) uint64 {
	return w.seg.FetchAdd(r.proc, r.comm.one, r.id, dst, dstOff, delta)
}

// WaitNotify blocks until the uint64 notification at sigOff in this
// rank's window equals val — the receiver side of notified access,
// with no user polling loop to pay for.
func (r *Rank) WaitNotify(w *Win, sigOff int, val uint64) {
	w.seg.WaitAll(r.proc, r.id, []int{sigOff}, val)
}

// WaitNotifyAny blocks until any unmasked signal word in this rank's
// window equals val and returns its index (the notified-access
// counterpart of nvshmem_wait_until_any). It charges nothing: a
// receiver that models a polling loop charges its scan separately.
func (r *Rank) WaitNotifyAny(w *Win, sigOffs []int, mask []bool, val uint64) int {
	return w.seg.WaitAny(r.proc, r.id, sigOffs, mask, val)
}
