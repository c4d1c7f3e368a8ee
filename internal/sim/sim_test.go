package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if got := FromMicroseconds(3.3); got != 3_300_000*Picosecond {
		t.Fatalf("FromMicroseconds(3.3) = %d, want 3.3e6 ps", int64(got))
	}
	if got := FromSeconds(1.0); got != Second {
		t.Fatalf("FromSeconds(1) = %v, want 1s", got)
	}
	if got := (5 * Microsecond).Microseconds(); got != 5.0 {
		t.Fatalf("Microseconds() = %v, want 5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{3300 * Nanosecond, "3.300us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d ps).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 1 GiB at 1 GB/s: 1073741824 / 1e9 s.
	got := TransferTime(1<<30, 1e9)
	want := FromSeconds(float64(1<<30) / 1e9)
	if got < want-1 || got > want+1 {
		t.Fatalf("TransferTime = %v, want about %v", got, want)
	}
	if TransferTime(0, 1e9) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if TransferTime(1, 1e12) == 0 {
		t.Fatal("non-empty transfer must take nonzero time")
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x, 25e9) <= TransferTime(y, 25e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 11) }) // FIFO at equal time
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30ps", e.Now())
	}
}

func TestEventOrderingRandomized(t *testing.T) {
	// Property: regardless of scheduling order, events fire in
	// nondecreasing time order and the clock matches each firing.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		n := 200
		var fired []Time
		for i := 0; i < n; i++ {
			d := Time(rng.Intn(1000))
			e.At(d, func() {
				fired = append(fired, e.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != n {
			t.Fatalf("fired %d events, want %d", len(fired), n)
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatal("events fired out of time order")
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 5*Microsecond {
		t.Fatalf("woke at %v, want 5us", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	for i, d := range []Time{30, 10, 20} {
		name := string(rune('a' + i))
		dd := d
		e.Spawn(name, func(p *Proc) {
			p.Sleep(dd)
			trace = append(trace, p.Name())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "c", "a"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ready := 0
	var got []string
	for _, n := range []string{"w1", "w2", "w3"} {
		name := n
		e.Spawn(name, func(p *Proc) {
			c.WaitFor(p, func() bool { return ready > 0 })
			got = append(got, name)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(100)
		ready = 1
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("only %d of 3 waiters woke: %v", len(got), got)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woke := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	e.Spawn("s", func(p *Proc) {
		p.Sleep(10)
		c.Signal()
		p.Sleep(10)
		c.Signal()
	})
	err := e.Run()
	if woke != 2 {
		t.Fatalf("woke = %d, want 2", woke)
	}
	// The third waiter deadlocks by design.
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("stuck-a", func(p *Proc) { c.Wait(p) })
	e.Spawn("stuck-b", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(d.Parked) != 2 || d.Parked[0] != "stuck-a" || d.Parked[1] != "stuck-b" {
		t.Fatalf("parked = %v", d.Parked)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(10)
	var respawn func()
	respawn = func() { e.At(e.Now()+1, respawn) }
	e.At(1, respawn)
	if err := e.Run(); err == nil {
		t.Fatal("expected event-limit error")
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	total := 0
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		for i := 0; i < 3; i++ {
			p.eng.Spawn("child", func(q *Proc) {
				q.Sleep(5)
				total++
			})
		}
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		c := NewCond(e)
		var stamps []Time
		n := 0
		for i := 0; i < 8; i++ {
			d := Time(i * 13)
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				n++
				c.Broadcast()
				c.WaitFor(p, func() bool { return n >= 8 })
				stamps = append(stamps, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic run lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversionsAndAccessors(t *testing.T) {
	if got := FromNanoseconds(2.5); got != 2500*Picosecond {
		t.Fatalf("FromNanoseconds = %v", got)
	}
	if got := (3 * Microsecond).Nanoseconds(); got != 3000 {
		t.Fatalf("Nanoseconds = %v", got)
	}
	if got := (1500 * Nanosecond).ToDuration(); got.Nanoseconds() != 1500 {
		t.Fatalf("ToDuration = %v", got)
	}
	// Negative durations render through the same unit selection.
	if s := (-3 * Microsecond).String(); s != "-3.000us" {
		t.Fatalf("negative String = %q", s)
	}
}

func TestEngineAtAndExecuted(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(5*Microsecond, func() { fired = true })
	// At with a past time clamps to now (fires immediately).
	past := false
	e.At(-1, func() { past = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || !past {
		t.Fatal("At events did not fire")
	}
	if e.Executed() != 2 {
		t.Fatalf("Executed = %d", e.Executed())
	}
}

// TestAtReturnsFiringTime: At reports when its event will fire — the
// clamped request time normally, the jittered time under perturbation
// (the value CoupledEngine.At publishes to its horizon tree).
func TestAtReturnsFiringTime(t *testing.T) {
	e := NewEngine()
	if got := e.At(5, func() {}); got != 5 {
		t.Fatalf("At(5) = %v, want 5ps", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.At(2, func() {}); got != 5 {
		t.Fatalf("At in the past = %v, want the clamped 5ps", got)
	}

	e = NewEngine()
	e.SetPerturbation(&Perturbation{Seed: 7, MaxJitter: 100})
	jittered := 0
	for i := 0; i < 50; i++ {
		req := e.Now() + 10
		var fired Time
		at := e.At(req, func() { fired = e.Now() })
		if at < req || at > req+100 {
			t.Fatalf("At(%v) = %v, outside [req, req+MaxJitter]", req, at)
		}
		if at != req {
			jittered++
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if fired != at {
			t.Fatalf("event fired at %v, At reported %v", fired, at)
		}
	}
	if jittered == 0 {
		t.Fatal("no event was jittered; the perturbed path went untested")
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("lonely", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	if err == nil || err.Error() == "" {
		t.Fatal("expected descriptive deadlock error")
	}
	if c.NumWaiters() != 1 {
		t.Fatalf("NumWaiters = %d", c.NumWaiters())
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine()
	e.Spawn("named", func(p *Proc) {
		if p.Engine() != e {
			t.Error("Engine() mismatch")
		}
		if p.Name() != "named" {
			t.Error("Name() mismatch")
		}
		p.Sleep(-5) // negative sleep clamps to yield
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCondWaitWrongEnginePanics(t *testing.T) {
	e1, e2 := NewEngine(), NewEngine()
	c := NewCond(e2)
	e1.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for cross-engine wait")
			}
		}()
		c.Wait(p)
	})
	_ = e1.Run()
}
