package mpi

import (
	"bytes"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

func newComm(t *testing.T, name string, n int) *Comm {
	t.Helper()
	cfg, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewComm(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHostStagedMPIOnGPUMachine(t *testing.T) {
	// GPU machines carry host-initiated MPI staged through the host:
	// messages pay the PCIe legs plus the host stack, so a small
	// message is slower than the ~4us device-initiated put.
	cfg, _ := machine.Get("perlmutter-gpu")
	c, err := NewComm(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Time
	err = c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, make([]byte, 8))
		} else {
			start := r.Now()
			r.Recv(0, 0)
			elapsed = r.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if us := elapsed.Microseconds(); us < 5.5 || us > 9 {
		t.Fatalf("host-staged small message = %.2fus, want ~6.5us (slower than GPU-initiated ~4us)", us)
	}
	// No RMA windows on the GPU partitions (one-sided MPI is absent).
	if _, err := c.NewWin(8); err == nil {
		t.Fatal("GPU machines should not offer CPU one-sided windows")
	}
}

func TestSendRecvPayload(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	payload := []byte("halo exchange")
	var got []byte
	err := c.Launch(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 7, payload)
		case 1:
			req := r.Recv(0, 7)
			got = req.Data
			if req.Src != 0 || req.Tag != 7 {
				t.Errorf("metadata = src %d tag %d", req.Src, req.Tag)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
}

func TestSendBufferReuseIsSafe(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	var got []byte
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			buf := []byte{1, 2, 3}
			r.Isend(1, 0, buf)
			buf[0] = 99 // eager copy must protect the payload
		} else {
			got = r.Recv(0, 0).Data
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("payload corrupted by buffer reuse: %v", got)
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// Message arrives before the receive is posted.
	c := newComm(t, "perlmutter-cpu", 2)
	var got []byte
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 3, []byte{42})
		} else {
			r.Compute(sim.FromMicroseconds(50)) // ensure arrival first
			got = r.Recv(0, 3).Data
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 3)
	var fromTag5, fromTag6 byte
	err := c.Launch(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(2, 5, []byte{5})
		case 1:
			r.Send(2, 6, []byte{6})
		case 2:
			// Receive tag 6 first even though tag 5 may arrive first.
			fromTag6 = r.Recv(AnySource, 6).Data[0]
			fromTag5 = r.Recv(AnySource, 5).Data[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fromTag5 != 5 || fromTag6 != 6 {
		t.Fatalf("tag matching broken: %d %d", fromTag5, fromTag6)
	}
}

func TestAnySourceOrdering(t *testing.T) {
	// MPI non-overtaking: two messages from the same sender with the
	// same tag must be received in send order.
	c := newComm(t, "perlmutter-cpu", 2)
	var first, second byte
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, []byte{1})
			r.Send(1, 0, []byte{2})
		} else {
			first = r.Recv(AnySource, AnyTag).Data[0]
			second = r.Recv(AnySource, AnyTag).Data[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 2 {
		t.Fatalf("overtaking: first=%d second=%d", first, second)
	}
}

func TestIrecvWaitall(t *testing.T) {
	// The stencil pattern: post 4 Irecvs + 4 Isends, Waitall.
	c := newComm(t, "perlmutter-cpu", 8)
	sum := make([]int, 8)
	err := c.Launch(func(r *Rank) {
		n := r.Size()
		var reqs []*Request
		for d := 1; d <= 4; d++ {
			reqs = append(reqs, r.Irecv((r.Rank()-d+n)%n, d))
		}
		for d := 1; d <= 4; d++ {
			reqs = append(reqs, r.Isend((r.Rank()+d)%n, d, []byte{byte(d)}))
		}
		r.Waitall(reqs)
		for _, q := range reqs[:4] {
			sum[r.Rank()] += int(q.Data[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk, s := range sum {
		if s != 1+2+3+4 {
			t.Fatalf("rank %d sum = %d", rk, s)
		}
	}
}

func TestProbe(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	var src, tag, size int
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 9, []byte{1, 2, 3, 4})
		} else {
			src, tag, size = r.Probe(AnySource, AnyTag)
			r.Recv(src, tag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if src != 0 || tag != 9 || size != 4 {
		t.Fatalf("probe = (%d, %d, %d)", src, tag, size)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 16)
	after := make([]sim.Time, 16)
	slowest := sim.FromMicroseconds(500)
	err := c.Launch(func(r *Rank) {
		// Rank 3 arrives late; nobody may leave before it arrives.
		if r.Rank() == 3 {
			r.Compute(slowest)
		}
		r.Barrier()
		after[r.Rank()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk, at := range after {
		if at < slowest {
			t.Fatalf("rank %d left the barrier at %v, before rank 3 arrived", rk, at)
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 8)
	err := c.Launch(func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSingleRank(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 1)
	if err := c.Launch(func(r *Rank) { r.Barrier() }); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockReported(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Recv(1, 0) // never sent
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSelfSend(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 1)
	var got byte
	err := c.Launch(func(r *Rank) {
		r.Isend(0, 0, []byte{7})
		got = r.Recv(0, 0).Data[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("self-send got %d", got)
	}
}

func TestTwoSidedLatencyCalibration(t *testing.T) {
	// End-to-end single small message across sockets: ~3.3 us
	// (Fig 6b), within tolerance.
	c := newComm(t, "perlmutter-cpu", 128)
	var elapsed sim.Time
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(127, 0, make([]byte, 100))
		} else if r.Rank() == 127 {
			start := r.Now()
			r.Recv(0, 0)
			elapsed = r.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if us := elapsed.Microseconds(); us < 2.6 || us > 3.9 {
		t.Fatalf("two-sided 1-msg = %.2fus, want ~3.3us", us)
	}
}
