package comm

import (
	"fmt"

	"msgroofline/internal/machine"
	"msgroofline/internal/mpi"
	"msgroofline/internal/sim"
)

// oneWord is the signal payload of the strict protocol's second put.
var oneWord = []byte{1, 0, 0, 0, 0, 0, 0, 0}

// rma delegates to internal/mpi RMA in two flavors sharing one
// window plumbing:
//
//   - strict (notified=false): fence epochs for exchange; the 4-op
//     put data / flush / put signal / flush protocol plus Listing-1
//     signal polling for streams; CAS/fetch-add with per-op
//     flush_local for atomics (§III, k=4);
//   - notified (notified=true): hardware put-with-signal — one fused
//     2-op flight per delivery, receiver-side WaitNotify instead of
//     polling, no flush_local (§V, k=2).
type rma struct {
	base
	c        *mpi.Comm
	notified bool

	exchWin *mpi.Win // exchange mode: 2 parities x K slots (+ signals when notified)
	dataWin *mpi.Win // strict stream mode: data slots
	sigWin  *mpi.Win // strict stream mode: signal words
	ntfWin  *mpi.Win // notified stream mode: data slots then signal words
	heapWin *mpi.Win // shared mode: raw atomics heap
}

func newRMA(spec Spec, notified bool) (*rma, error) {
	if notified {
		if _, ok := spec.Machine.Params(machine.NotifiedAccess); !ok {
			return nil, fmt.Errorf("comm: machine %s has no notified-access transport", spec.Machine.Name)
		}
	}
	c, err := mpi.NewCommSharded(spec.Machine, spec.Ranks, spec.Shards)
	if err != nil {
		return nil, err
	}
	spec.applyChaos(c.World(), c.World().Inst.Net)
	t := &rma{base: base{spec: spec}, c: c, notified: notified}
	// The trace tap goes on whichever window carries payload puts;
	// protocol-overhead signal puts (sigWin) are charged, not traced.
	var tapWin *mpi.Win
	switch {
	case spec.ExchangeSlots > 0:
		size := 2 * spec.ExchangeSlots * spec.SlotBytes
		if notified {
			size += 2 * spec.ExchangeSlots * 8
		}
		if t.exchWin, err = c.NewWin(size); err != nil {
			return nil, err
		}
		tapWin = t.exchWin
	case spec.StreamSlots != nil:
		if notified {
			// Data slots followed by notification slots in one window.
			sizes := make([]int, spec.Ranks)
			for r := range sizes {
				sizes[r] = (spec.SlotBytes + 8) * spec.StreamSlots[r]
			}
			if t.ntfWin, err = c.NewWinSizes(sizes); err != nil {
				return nil, err
			}
			tapWin = t.ntfWin
		} else {
			dataSizes := make([]int, spec.Ranks)
			sigSizes := make([]int, spec.Ranks)
			for r := range dataSizes {
				dataSizes[r] = spec.SlotBytes * spec.StreamSlots[r]
				sigSizes[r] = 8 * spec.StreamSlots[r]
			}
			if t.dataWin, err = c.NewWinSizes(dataSizes); err != nil {
				return nil, err
			}
			if t.sigWin, err = c.NewWinSizes(sigSizes); err != nil {
				return nil, err
			}
			tapWin = t.dataWin
		}
	case spec.SharedBytes > 0:
		if t.heapWin, err = c.NewWin(spec.SharedBytes); err != nil {
			return nil, err
		}
		tapWin = t.heapWin
	}
	if hook := t.attachTrace(); hook != nil {
		tapWin.SetHook(hook)
	}
	return t, nil
}

func (t *rma) Kind() Kind {
	if t.notified {
		return Notified
	}
	return OneSided
}

func (t *rma) Caps() Caps        { return Caps{Atomics: true, Fused: t.notified} }
func (t *rma) Digest() uint64    { return t.c.Digest() }
func (t *rma) Elapsed() sim.Time { return t.c.Elapsed() }

func (t *rma) SharedBytes(rank int) []byte {
	if t.heapWin == nil {
		return nil
	}
	return t.heapWin.Local(rank)
}

func (t *rma) AtomicCount() int64 {
	if t.heapWin == nil {
		return 0
	}
	_, atomics := t.heapWin.OpStats()
	return atomics
}

func (t *rma) Launch(body func(Endpoint)) error {
	return t.c.Launch(func(r *mpi.Rank) {
		ep := &rmaEp{t: t, r: r}
		if t.spec.StreamSlots != nil {
			ep.expected = t.spec.StreamSlots[r.Rank()]
			ep.mask = make([]bool, ep.expected)
			// Signal words: after the data slots in the notified
			// window, the whole of sigWin in strict mode.
			base := 0
			if t.notified {
				base = t.spec.SlotBytes * ep.expected
			}
			ep.sigs = make([]int, ep.expected)
			for i := range ep.sigs {
				ep.sigs[i] = base + 8*i
			}
		}
		body(ep)
	})
}

type rmaEp struct {
	t *rma
	r *mpi.Rank

	// Streamed-delivery receive state.
	expected int
	mask     []bool
	sigs     []int // this rank's signal-word offsets
	got      int
}

func (e *rmaEp) Rank() int          { return e.r.Rank() }
func (e *rmaEp) Size() int          { return e.t.spec.Ranks }
func (e *rmaEp) Caps() Caps         { return e.t.Caps() }
func (e *rmaEp) Now() sim.Time      { return e.r.Now() }
func (e *rmaEp) Compute(d sim.Time) { e.r.Compute(d) }
func (e *rmaEp) Barrier()           { e.r.Barrier() }

// Quiet is a no-op: the strict protocol flushes every delivery at
// issue time and notified-access ops complete fused, so there is
// never outstanding local state to drain (and no op to charge).
func (e *rmaEp) Quiet() {}

// Exchange runs one epoch against the parity-double-buffered window:
// strict mode closes it with a fence (Put x sends + MPI_Win_fence,
// §III-A); notified mode replaces the fence with per-slot
// put-with-signal and receiver-side WaitNotify — no barrier.
func (e *rmaEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	t := e.t
	k, stride := t.spec.ExchangeSlots, t.spec.SlotBytes
	parity := epoch % 2
	if t.notified {
		sigBase := 2 * k * stride
		for _, m := range sends {
			if err := e.r.PutNotify(t.exchWin, m.Peer, (parity*k+m.Slot)*stride, m.Data,
				sigBase+(parity*k+m.Slot)*8, uint64(epoch+1)); err != nil {
				panic(err)
			}
		}
		for _, x := range recvs {
			e.r.WaitNotify(t.exchWin, sigBase+(parity*k+x.Slot)*8, uint64(epoch+1))
		}
	} else {
		for _, m := range sends {
			e.r.Put(t.exchWin, m.Peer, (parity*k+m.Slot)*stride, m.Data)
		}
		e.r.Fence(t.exchWin)
	}
	e.t.sync()
	me := e.r.Rank()
	out := make([][]byte, len(recvs))
	for i, x := range recvs {
		off := (parity*k + x.Slot) * stride
		out[i] = t.exchWin.Local(me)[off : off+x.Bytes]
	}
	return out
}

// Deliver streams one payload into (peer, slot). Strict mode is the
// paper's 4-op protocol: Put data, Win_flush, Put signal, Win_flush.
// Notified mode is ONE fused operation and one flight.
func (e *rmaEp) Deliver(peer, slot int, data []byte) {
	t := e.t
	stride := t.spec.SlotBytes
	if t.notified {
		base := stride * t.spec.StreamSlots[peer]
		if err := e.r.PutNotify(t.ntfWin, peer, slot*stride, data, base+8*slot, 1); err != nil {
			panic(err)
		}
		return
	}
	e.r.Put(t.dataWin, peer, slot*stride, data)
	e.r.Flush(t.dataWin, peer)
	e.r.Put(t.sigWin, peer, slot*8, oneWord)
	e.r.Flush(t.sigWin, peer)
}

// WaitAnySlot blocks for the next unconsumed delivery. Strict mode is
// the paper's Listing-1 acknowledgment loop — scan the signal words
// masking out arrivals, charging PollCheck per remaining slot per
// wakeup. Notified mode waits on the hardware notification instead.
func (e *rmaEp) WaitAnySlot() (int, []byte) {
	t := e.t
	stride := t.spec.SlotBytes
	me := e.r.Rank()
	if t.notified {
		i := e.r.WaitNotifyAny(t.ntfWin, e.sigs, e.mask, 1)
		e.mask[i] = true
		e.got++
		t.sync()
		return i, t.ntfWin.Local(me)[i*stride : (i+1)*stride]
	}
	found := e.r.WaitNotifyAny(t.sigWin, e.sigs, e.mask, 1)
	// Charge the scan over the remaining (unmasked) slots.
	if t.spec.PollCheck > 0 {
		e.r.Compute(t.spec.PollCheck * sim.Time(e.expected-e.got))
	}
	e.mask[found] = true
	e.got++
	t.sync()
	return found, t.dataWin.Local(me)[found*stride : (found+1)*stride]
}

func (e *rmaEp) CAS(peer, off int, compare, swap uint64) uint64 {
	return e.r.CompareAndSwap(e.t.heapWin, peer, off, compare, swap)
}

func (e *rmaEp) FetchAdd(peer, off int, delta uint64) uint64 {
	return e.r.FetchAndAdd(e.t.heapWin, peer, off, delta)
}

// FlushLocal charges local completion of outstanding RMA toward peer
// — an MPI op on the strict path; fused notified-access ops are
// already locally complete, so notified mode skips it.
func (e *rmaEp) FlushLocal(peer int) {
	if e.t.notified {
		return
	}
	e.r.FlushLocal(e.t.heapWin, peer)
}

func (e *rmaEp) Lanes(int) int { return 1 }

func (e *rmaEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	for i := 0; i < lanes; i++ {
		body(e, i)
	}
}

func (e *rmaEp) BcastPut([]byte) {
	panic("comm: RMA transports update remotely with atomics (gate on Caps().Atomics)")
}

func (e *rmaEp) CollectPuts() [][]byte {
	panic("comm: RMA transports update remotely with atomics (gate on Caps().Atomics)")
}
