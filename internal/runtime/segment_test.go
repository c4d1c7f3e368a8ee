package runtime

import (
	"bytes"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
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

// TestSegmentBoundsUseRecordedSize: an out-of-range put to an
// untouched rank panics with the bounds message before the rank's
// buffer exists, a zero-size rank rejects any payload, and Local on an
// untouched rank is a zeroed buffer of full length.
func TestSegmentBoundsUseRecordedSize(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 3)
	s, err := NewSegment(w, []int{16, 8, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		target, off, n int
		want           string
	}{
		{1, 4, 8, "runtime: segment access [4, 12) outside rank 1's 8-byte region"},
		{2, 0, 1, "runtime: segment access [0, 1) outside rank 2's 0-byte region"},
	} {
		func() {
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("put to rank %d panicked with %v, want %q", c.target, r, c.want)
				}
			}()
			s.NewPut(0, c.target, c.off, make([]byte, c.n), NoSignal, 0)
		}()
		if s.ranks[c.target].buf != nil {
			t.Errorf("rejected put allocated rank %d's buffer", c.target)
		}
	}
	if s.ranks[2].buf != nil {
		t.Fatal("untouched rank allocated at construction")
	}
	for r, size := range []int{16, 8, 0} {
		if got := s.Local(r); len(got) != size || !bytes.Equal(got, make([]byte, size)) {
			t.Errorf("Local(%d) = %v, want %d zero bytes", r, got, size)
		}
	}
}

// TestSegmentPutAllocatesNothing: issuing and landing a 1 MiB put
// moves the payload once, origin to target, with no staging buffer.
func TestSegmentPutAllocatesNothing(t *testing.T) {
	if OriginGuardForced {
		t.Skip("race builds randomize sync.Pool reuse")
	}
	w := newWorld(t, "perlmutter-cpu", 2)
	s := newSegment(t, w, 1<<20)
	payload := bytes.Repeat([]byte{7}, 1<<20)
	put := s.NewPut(0, 1, 0, payload, NoSignal, 0)
	if n := testing.AllocsPerRun(20, func() { put.Land(0)(1) }); n != 0 {
		t.Fatalf("1 MiB put allocated %v times per issue and landing, want 0", n)
	}
	if !bytes.Equal(s.Local(1), payload) {
		t.Fatal("payload not landed")
	}
}

// TestSegmentMemoryOnFirstTouch: a segment's memory is allocated per
// rank on first touch, so exposing 16 MiB on 16 ranks and writing one
// costs one rank's buffer.
func TestSegmentMemoryOnFirstTouch(t *testing.T) {
	const ranks, size = 16, 16 << 20
	w := newWorld(t, "perlmutter-cpu", ranks)
	sizes := make([]int, ranks)
	for i := range sizes {
		sizes[i] = size
	}
	payload := []byte("first touch")
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	s, err := NewSegment(w, sizes)
	if err != nil {
		t.Fatal(err)
	}
	s.NewPut(0, 5, size-len(payload), payload, NoSignal, 0).Land(0)(1)
	goruntime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 17<<20 {
		t.Fatalf("segment plus one put allocated %d MiB, want under 17", got>>20)
	}
	for r := range s.ranks {
		if touched := s.ranks[r].buf != nil; touched != (r == 5) {
			t.Errorf("rank %d allocated = %v after one put to rank 5", r, touched)
		}
	}
	if got := s.Local(5)[size-len(payload):]; !bytes.Equal(got, payload) {
		t.Fatalf("landed %q, want %q", got, payload)
	}
}

// TestOriginGuard: a payload rewritten between issue and landing
// panics with ErrOriginModified naming the put while the guard is on;
// with it off, the landing copies whatever the buffer holds.
func TestOriginGuard(t *testing.T) {
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("guard=%v", on), func(t *testing.T) {
			if !on && OriginGuardForced {
				t.Skip("race builds keep the guard on")
			}
			w := newWorld(t, "perlmutter-cpu", 2)
			s := newSegment(t, w, 32)
			s.SetOriginGuard(on)
			payload := []byte("origin")
			land := s.NewPut(0, 1, 8, payload, NoSignal, 0).Land(0)
			payload[0] = 'O'
			var got any
			func() {
				defer func() { got = recover() }()
				land(1)
			}()
			if !on {
				if got != nil || !bytes.Equal(s.Local(1)[8:14], payload) {
					t.Fatalf("unguarded landing: panic %v, landed %q", got, s.Local(1)[8:14])
				}
				return
			}
			err, _ := got.(error)
			if !errors.Is(err, ErrOriginModified) ||
				!strings.Contains(err.Error(), "origin 0, target 1, offset 8, 6 bytes") {
				t.Fatalf("guarded landing panicked with %v", got)
			}
		})
	}
}

// TestOriginGuardAcrossGroups: a put between node groups whose origin
// rewrites its buffer as soon as the flush returns races the landing
// in the same window, and the guard fails it at the window barrier
// (the inline window runs the target's group first, so the landing
// itself read the original); rewriting once a window barrier has
// passed is safe and lands the original bytes.
func TestOriginGuardAcrossGroups(t *testing.T) {
	cfg, err := machine.Get("perlmutter-cpu")
	if err != nil {
		t.Fatal(err)
	}
	for _, wait := range []bool{false, true} {
		t.Run(fmt.Sprintf("wait=%v", wait), func(t *testing.T) {
			w, err := NewWorldSharded(cfg, 128, 1)
			if err != nil {
				t.Fatal(err)
			}
			const origin, target = 127, 0
			if w.GroupOf(origin) <= w.GroupOf(target) {
				t.Fatal("origin's node group does not run after the target's")
			}
			tp, _ := cfg.Params(machine.OneSided)
			s := newSegment(t, w, 64)
			s.SetOriginGuard(true)
			payload := []byte("original")
			w.Spawn(origin, "origin", func(p *sim.Proc) {
				put := s.NewPut(origin, target, 0, payload, NoSignal, 0)
				w.Endpoint(origin).Inject(tp, target, put.Bytes(), 0, put.Land(p.Now()), put.Track())
				s.WaitFlushed(p, origin, target)
				if wait {
					p.Sleep(w.Lookahead())
				}
				copy(payload, "REWRITE!")
			})
			var got any
			func() {
				defer func() { got = recover() }()
				err = w.Run()
			}()
			if wait {
				if got != nil || err != nil {
					t.Fatalf("rewrite after a window barrier failed: %v %v", got, err)
				}
				if !bytes.Equal(s.Local(target)[:8], []byte("original")) {
					t.Fatalf("landed %q", s.Local(target)[:8])
				}
				return
			}
			if e, _ := got.(error); !errors.Is(e, ErrOriginModified) ||
				!strings.Contains(e.Error(), "in its completion's window") {
				t.Fatalf("rewrite in the completion's window: panic %v, err %v", got, err)
			}
		})
	}
}
