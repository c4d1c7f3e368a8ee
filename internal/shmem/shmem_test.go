package shmem

import (
	"bytes"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

func newJob(t *testing.T, name string, npes, heap int) *Job {
	t.Helper()
	cfg, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJob(cfg, npes, heap)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewJobRequiresGPU(t *testing.T) {
	cfg, _ := machine.Get("perlmutter-cpu")
	if _, err := NewJob(cfg, 2, 64); err == nil {
		t.Fatal("CPU machine should not offer GPU shmem")
	}
	if _, err := NewJobOn(cfg, machine.StreamTriggered, 2, 64, 1); err == nil {
		t.Fatal("CPU machine should not offer stream-triggered puts")
	}
	gpu, _ := machine.Get("perlmutter-gpu")
	if _, err := NewJobOn(gpu, machine.OneSided, 2, 64, 1); err == nil {
		t.Fatal("one-sided MPI is not a symmetric-heap put path")
	}
}

func TestPutSignalDelivery(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 2, 1024)
	payload := []byte("device-initiated")
	err := j.Launch(func(c *Ctx) {
		switch c.MyPE() {
		case 0:
			c.PutSignalNBI(1, 0, payload, 512, 1)
		case 1:
			c.WaitUntilAll([]int{512}, 1)
			if !bytes.Equal(c.PE().Heap()[:len(payload)], payload) {
				t.Error("signal fired before data landed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutLatencyCalibration(t *testing.T) {
	// §II: Perlmutter GPU single put-with-signal ~4 us; Summit ~5 us.
	for _, tc := range []struct {
		machine string
		npes    int
		lo, hi  float64
	}{
		{"perlmutter-gpu", 2, 3.5, 4.6},
		{"summit-gpu", 2, 4.4, 5.6},
	} {
		j := newJob(t, tc.machine, tc.npes, 256)
		var elapsed sim.Time
		err := j.Launch(func(c *Ctx) {
			if c.MyPE() == 1 {
				start := c.Now()
				c.WaitUntilAll([]int{128}, 1)
				elapsed = c.Now() - start
			} else {
				c.PutSignalNBI(1, 0, make([]byte, 8), 128, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if us := elapsed.Microseconds(); us < tc.lo || us > tc.hi {
			t.Errorf("%s put-with-signal = %.2fus, want [%.1f, %.1f]", tc.machine, us, tc.lo, tc.hi)
		}
	}
}

func TestWaitUntilAny(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 3, 256)
	var order []int
	err := j.Launch(func(c *Ctx) {
		switch c.MyPE() {
		case 0:
			// Receive two messages via wait_until_any + mask.
			sig := []int{0, 8}
			mask := make([]bool, 2)
			for n := 0; n < 2; n++ {
				i := c.WaitUntilAny(sig, mask, 1)
				mask[i] = true
				order = append(order, i)
			}
		case 1:
			c.Compute(sim.FromMicroseconds(20))
			c.PutSignalNBI(0, 100, []byte{1}, 0, 1)
		case 2:
			c.PutSignalNBI(0, 101, []byte{2}, 8, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// PE 2 sends immediately, PE 1 after 20us: slot 1 must fire first.
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", order)
	}
}

func TestQuiet(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 2, 1<<21)
	err := j.Launch(func(c *Ctx) {
		if c.MyPE() == 0 {
			c.PutNBI(1, 0, make([]byte, 1<<20))
			c.Quiet()
			// After quiet, data must be in the remote heap.
			if j.PE(1).Heap()[0] != 0 {
				t.Error("unexpected heap content")
			}
			if got := j.PE(1).Heap()[1<<20-1]; got != 0 {
				t.Error("unexpected tail")
			}
			if p, _ := c.PE().OpStats(); p != 1 {
				t.Errorf("puts = %d", p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicCompareSwapRace(t *testing.T) {
	// All PEs CAS the same slot; exactly one must win.
	j := newJob(t, "summit-gpu", 6, 64)
	wins := 0
	err := j.Launch(func(c *Ctx) {
		old := c.AtomicCompareSwap(0, 0, 0, uint64(c.MyPE())+1)
		if old == 0 {
			wins++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if wins != 1 {
		t.Fatalf("wins = %d, want exactly 1", wins)
	}
}

func TestAtomicFetchAddExact(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 4, 64)
	err := j.Launch(func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.AtomicFetchAdd(0, 8, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.PE(0).Uint64At(8); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
}

func TestCASCalibrationCrossSocket(t *testing.T) {
	// Summit GPU: CAS ~1us in-island, ~1.6us across (§III-C).
	measure := func(dst int) float64 {
		j := newJob(t, "summit-gpu", 6, 64)
		var elapsed sim.Time
		if err := j.Launch(func(c *Ctx) {
			if c.MyPE() != 0 {
				return
			}
			start := c.Now()
			c.AtomicCompareSwap(dst, 0, 0, 1)
			elapsed = c.Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return elapsed.Microseconds()
	}
	in := measure(1)
	cross := measure(3)
	if in < 0.8 || in > 1.2 {
		t.Errorf("in-island CAS = %.2fus, want ~1us", in)
	}
	if cross < 1.4 || cross > 1.9 {
		t.Errorf("cross-island CAS = %.2fus, want ~1.6us", cross)
	}
}

func TestBarrier(t *testing.T) {
	j := newJob(t, "summit-gpu", 6, 64)
	after := make([]sim.Time, 6)
	slow := sim.FromMicroseconds(300)
	err := j.Launch(func(c *Ctx) {
		if c.MyPE() == 4 {
			c.Compute(slow)
		}
		c.Barrier()
		after[c.MyPE()] = c.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, at := range after {
		if at < slow {
			t.Fatalf("PE %d left barrier at %v before PE 4 arrived", pe, at)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 4, 64)
	err := j.Launch(func(c *Ctx) {
		for i := 0; i < 12; i++ {
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForkJoinBlocks(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 1, 64)
	total := 0
	err := j.Launch(func(c *Ctx) {
		c.ForkJoin(80, func(blk *Ctx, i int) {
			blk.Compute(sim.Microsecond)
			total++
		})
		if total != 80 {
			t.Errorf("ForkJoin returned before all blocks: %d", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 80 blocks of 1us run concurrently: elapsed ~1us, not 80us.
	if j.Elapsed() > sim.FromMicroseconds(5) {
		t.Fatalf("blocks did not run concurrently: %v", j.Elapsed())
	}
}

func TestForkJoinConcurrentComms(t *testing.T) {
	// Blocks issuing puts concurrently spread over channels and beat
	// a serial issue loop.
	j := newJob(t, "perlmutter-gpu", 2, 1<<22)
	err := j.Launch(func(c *Ctx) {
		if c.MyPE() != 0 {
			return
		}
		c.ForkJoin(4, func(blk *Ctx, i int) {
			blk.PutSignalNBICh(1, i*1024, make([]byte, 1024), 1<<22-64+8*i, 1, i)
		})
		c.Quiet()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitMessageSpeedup(t *testing.T) {
	// Fig 10 mechanism at the SHMEM level: 1 MiB as one message vs
	// four 256 KiB messages on distinct channels.
	const size = 1 << 20
	run := func(split bool) sim.Time {
		j := newJob(t, "perlmutter-gpu", 2, 2*size)
		err := j.Launch(func(c *Ctx) {
			if c.MyPE() != 0 {
				return
			}
			if split {
				quarter := size / 4
				for i := 0; i < 4; i++ {
					c.PutSignalNBICh(1, i*quarter, make([]byte, quarter), 2*size-64+8*i, 1, i)
				}
			} else {
				c.PutSignalNBICh(1, 0, make([]byte, size), 2*size-64, 1, 0)
			}
			c.Quiet()
		})
		if err != nil {
			t.Fatal(err)
		}
		return j.Elapsed()
	}
	single, split := run(false), run(true)
	sp := float64(single) / float64(split)
	if sp < 2.3 || sp > 4.0 {
		t.Fatalf("split speedup = %.2f, want ~2.9x (paper Fig 10)", sp)
	}
}

func TestPutBoundsPanic(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 2, 64)
	err := j.Launch(func(c *Ctx) {
		if c.MyPE() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c.PutNBI(1, 60, make([]byte, 8))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemChannelsOpenOnFirstPut(t *testing.T) {
	cfg, _ := machine.Get("perlmutter-cpu")
	j, err := NewJobOn(cfg, machine.MemChannel, 4, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chans := j.PE(0).Channels(); chans != nil {
		t.Fatalf("channels open before any put: %v", chans)
	}
	err = j.Launch(func(c *Ctx) {
		if c.MyPE() == 0 {
			c.PutNBI(2, 0, []byte{7})
			c.PutNBI(2, 8, []byte{8})
			c.Quiet()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := j.PE(0).Channels()
	if len(chans) != 4 {
		t.Fatalf("PE 0 has %d channel slots, want one per destination (4)", len(chans))
	}
	for dst, ch := range chans {
		switch {
		case dst == 2 && (ch == nil || ch.Dst() != 2 || ch.Sent() != 2 || ch.InFlight() != 0):
			t.Fatalf("channel to PE 2 = %+v, want 2 writes sent and drained", ch)
		case dst != 2 && ch != nil:
			t.Fatalf("channel to unused PE %d was opened", dst)
		}
	}
	if chans := j.PE(1).Channels(); chans != nil {
		t.Fatalf("PE 1 never put but has channels %v", chans)
	}
	if got := j.PE(2).Heap()[8]; got != 8 {
		t.Fatalf("second write not applied: heap[8] = %d", got)
	}
}
