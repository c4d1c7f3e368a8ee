package runtime

import (
	"bytes"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

func newSegment(t *testing.T, w *World, size int) *Segment {
	t.Helper()
	sizes := make([]int, w.Size())
	for i := range sizes {
		sizes[i] = size
	}
	s, err := NewSegment(w, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentRejectsBadSizes(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 2)
	if _, err := NewSegment(w, []int{8}); err == nil {
		t.Fatal("one size for two ranks should fail")
	}
	if _, err := NewSegment(w, []int{8, -1}); err == nil {
		t.Fatal("negative size should fail")
	}
}

// TestSegmentPutLandsAndRetires drives the put core directly: payload
// then signal word land at the target, the hook sees payload+8, and
// the origin's in-flight record for the target exists only while a
// put is in flight.
func TestSegmentPutLandsAndRetires(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 4)
	tp, _ := w.Inst.Cfg.Params(machine.OneSided)
	s := newSegment(t, w, 64)
	var hooked int64
	s.SetHook(func(src, dst int, n int64, issue, deliver sim.Time) {
		if src != 0 || dst != 3 || deliver <= issue {
			t.Errorf("hook saw %d->%d at %v..%v", src, dst, issue, deliver)
		}
		hooked += n
	})
	payload := []byte("segment")
	var got int
	w.Spawn(0, "origin", func(p *sim.Proc) {
		ep := w.Endpoint(0)
		for i := 0; i < 2; i++ {
			put := s.NewPut(0, 3, 16*i, payload, 48+8*i, uint64(i+1))
			ep.Inject(tp, 3, put.Bytes(), 0, put.Land(p.Now()), put.Track())
		}
		if n := s.InFlight(0); n != 2 {
			t.Errorf("in flight after two puts = %d, want 2", n)
		}
		if len(s.ranks[0].toTarget) != 1 {
			t.Errorf("per-target records = %d, want 1", len(s.ranks[0].toTarget))
		}
		s.WaitFlushed(p, 0, 3)
		if len(s.ranks[0].toTarget) != 0 || s.InFlight(0) != 0 {
			t.Errorf("flushed origin still holds %d records, %d in flight",
				len(s.ranks[0].toTarget), s.InFlight(0))
		}
	})
	w.Spawn(3, "target", func(p *sim.Proc) {
		s.WaitAll(p, 3, []int{48}, 1)
		got = s.WaitAny(p, 3, []int{48, 56}, []bool{true, false}, 2)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("WaitAny = %d, want 1 (slot 0 masked)", got)
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(s.Local(3)[16*i:16*i+len(payload)], payload) {
			t.Fatalf("payload %d not landed: %q", i, s.Local(3)[:32])
		}
		if v := s.Uint64At(3, 48+8*i); v != uint64(i+1) {
			t.Fatalf("signal %d = %d", i, v)
		}
	}
	if want := 2 * int64(len(payload)+8); hooked != want {
		t.Fatalf("hook saw %d bytes, want %d", hooked, want)
	}
	if puts, _ := s.OpStats(0); puts != 2 {
		t.Fatalf("puts = %d, want 2", puts)
	}
}

func TestSegmentAtomics(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 2)
	tp, _ := w.Inst.Cfg.Params(machine.OneSided)
	s := newSegment(t, w, 16)
	var first, second, sum uint64
	w.Spawn(0, "origin", func(p *sim.Proc) {
		first = s.CAS(p, tp, 0, 1, 0, 0, 5)
		second = s.CAS(p, tp, 0, 1, 0, 0, 9)
		s.FetchAdd(p, tp, 0, 1, 8, 3)
		sum = s.FetchAdd(p, tp, 0, 1, 8, 4)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 0 || second != 5 || s.Uint64At(1, 0) != 5 {
		t.Fatalf("CAS observed %d then %d, word %d; want 0, 5, 5", first, second, s.Uint64At(1, 0))
	}
	if sum != 3 || s.Uint64At(1, 8) != 7 {
		t.Fatalf("fetch-add observed %d, word %d; want 3, 7", sum, s.Uint64At(1, 8))
	}
	if _, atomics := s.OpStats(0); atomics != 4 {
		t.Fatalf("atomics = %d, want 4", atomics)
	}
}

func TestSegmentBoundsPanic(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 2)
	s := newSegment(t, w, 8)
	for name, put := range map[string]func(){
		"rank":    func() { s.NewPut(0, 2, 0, []byte{1}, NoSignal, 0) },
		"payload": func() { s.NewPut(0, 1, 6, []byte{1, 2, 3}, NoSignal, 0) },
		"signal":  func() { s.NewPut(0, 1, 0, []byte{1}, 4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range: no panic", name)
				}
			}()
			put()
		}()
	}
}
