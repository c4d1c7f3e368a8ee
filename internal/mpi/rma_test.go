package mpi

import (
	"bytes"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

func TestWinCreation(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 4)
	w, err := c.NewWin(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Local(2)) != 64 {
		t.Fatal("window size wrong")
	}
	if _, err := c.NewWinSizes([]int{1, 2}); err == nil {
		t.Fatal("wrong size count should fail")
	}
	if _, err := c.NewWinSizes([]int{1, -2, 3, 4}); err == nil {
		t.Fatal("negative size should fail")
	}
}

func TestPutFlushVisibility(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(16)
	const doneTag = 7
	var seen []byte
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(w, 1, 4, []byte{9, 8, 7})
			r.Flush(w, 1)
			// Flush completed the put remotely; notify the target.
			r.Send(1, doneTag, []byte{1})
		} else {
			r.Recv(0, doneTag)
			// The notification was issued strictly after the flush
			// returned, so the put must already be visible in this
			// rank's own window memory (window memory is owned by its
			// rank — visibility is always observed target-side).
			seen = append([]byte{}, w.Local(1)[4:7]...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen, []byte{9, 8, 7}) {
		t.Fatalf("after flush remote memory = %v", seen)
	}
}

func TestPutWithoutFlushNotYetVisible(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(16)
	var immediate byte
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(w, 1, 0, []byte{5})
			immediate = w.Local(1)[0] // no flush: still in flight
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if immediate != 0 {
		t.Fatal("put visible before any completion wait — no latency modeled?")
	}
}

func TestFourOpProtocolCalibration(t *testing.T) {
	// The paper's one-sided message: put(data), flush, put(signal),
	// flush — about 5 us on Perlmutter CPU (Fig 6b).
	c := newComm(t, "perlmutter-cpu", 128)
	data, _ := c.NewWin(1 << 12)
	sig, _ := c.NewWin(8)
	var elapsed sim.Time
	err := c.Launch(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		start := r.Now()
		r.Put(data, 127, 0, make([]byte, 100))
		r.Flush(data, 127)
		r.Put(sig, 127, 0, []byte{1, 0, 0, 0, 0, 0, 0, 0})
		r.Flush(sig, 127)
		elapsed = r.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	if us := elapsed.Microseconds(); us < 4.2 || us > 5.8 {
		t.Fatalf("4-op one-sided message = %.2fus, want ~5us", us)
	}
}

func TestFenceEpoch(t *testing.T) {
	// BSP pattern: everyone puts to the right neighbor, fence, read.
	c := newComm(t, "perlmutter-cpu", 8)
	w, _ := c.NewWin(8)
	got := make([]byte, 8)
	err := c.Launch(func(r *Rank) {
		right := (r.Rank() + 1) % r.Size()
		r.Put(w, right, 0, []byte{byte(r.Rank() + 1)})
		r.Fence(w)
		got[r.Rank()] = w.Local(r.Rank())[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk := range got {
		left := (rk - 1 + 8) % 8
		if got[rk] != byte(left+1) {
			t.Fatalf("rank %d read %d after fence, want %d", rk, got[rk], left+1)
		}
	}
}

func TestCompareAndSwap(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(8)
	var first, second, final uint64
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			first = r.CompareAndSwap(w, 1, 0, 0, 100)  // succeeds
			second = r.CompareAndSwap(w, 1, 0, 0, 200) // fails: now 100
			final = w.Uint64At(1, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first CAS observed %d, want 0", first)
	}
	if second != 100 {
		t.Fatalf("second CAS observed %d, want 100", second)
	}
	if final != 100 {
		t.Fatalf("final value %d, want 100 (second CAS must fail)", final)
	}
}

func TestFetchAndAddAtomicity(t *testing.T) {
	// Every rank increments rank 0's counter concurrently; the sum
	// must be exact and each fetch value unique.
	const n = 8
	c := newComm(t, "perlmutter-cpu", n)
	w, _ := c.NewWin(8)
	seen := make(map[uint64]bool)
	err := c.Launch(func(r *Rank) {
		old := r.FetchAndAdd(w, 0, 0, 1)
		if seen[old] {
			t.Errorf("duplicate fetch value %d", old)
		}
		seen[old] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Uint64At(0, 0); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
}

func TestSpectrumOneSidedSlower(t *testing.T) {
	// Fig 3c: on Summit, the one-sided path is consistently slower
	// than two-sided. Compare one fully synchronized small message.
	oneSided := func() sim.Time {
		c := newComm(t, "summit-cpu", 42)
		data, _ := c.NewWin(4096)
		var el sim.Time
		if err := c.Launch(func(r *Rank) {
			if r.Rank() != 0 {
				return
			}
			start := r.Now()
			r.Put(data, 41, 0, make([]byte, 100))
			r.Flush(data, 41)
			r.Put(data, 41, 1024, []byte{1})
			r.Flush(data, 41)
			el = r.Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return el
	}()
	twoSided := func() sim.Time {
		c := newComm(t, "summit-cpu", 42)
		var el sim.Time
		if err := c.Launch(func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(41, 0, make([]byte, 100))
			} else if r.Rank() == 41 {
				start := r.Now()
				r.Recv(0, 0)
				el = r.Now() - start
			}
		}); err != nil {
			t.Fatal(err)
		}
		return el
	}()
	if oneSided <= twoSided {
		t.Fatalf("Spectrum one-sided (%v) should be slower than two-sided (%v)", oneSided, twoSided)
	}
	if ratio := float64(oneSided) / float64(twoSided); ratio < 1.5 {
		t.Fatalf("Summit one-sided/two-sided ratio = %.2f, want clearly worse", ratio)
	}
}

func TestWindowBoundsPanic(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(8)
	err := c.Launch(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range put")
			}
		}()
		r.Put(w, 1, 6, []byte{1, 2, 3, 4})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpStats(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(16)
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(w, 1, 0, []byte{1})
			r.Flush(w, 1)
			r.CompareAndSwap(w, 1, 8, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	puts, atomics := w.OpStats()
	if puts != 1 || atomics != 1 {
		t.Fatalf("op stats = %d puts, %d atomics", puts, atomics)
	}
}

func TestNoOneSidedOnMachineWithoutRMA(t *testing.T) {
	// All CPU machines in the catalog have RMA; construct the error
	// path by checking a communicator with has1s forced off is
	// impossible through the public API — instead verify NewWin's
	// error when the transport is absent cannot trigger on catalog
	// machines.
	for _, name := range machine.Names() {
		cfg, _ := machine.Get(name)
		if cfg.Kind != machine.CPU {
			continue
		}
		c := newComm(t, name, 2)
		if _, err := c.NewWin(8); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
