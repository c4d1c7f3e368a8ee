package bench

import (
	"reflect"
	"testing"

	"msgroofline/internal/loggp"
	"msgroofline/internal/machine"
	"msgroofline/internal/pointcache"
	"msgroofline/internal/sim"
)

func cfg(t *testing.T, name string) *machine.Config {
	t.Helper()
	c, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTwoSidedSweepShape(t *testing.T) {
	r, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: TwoSided, Ranks: 2, Ns: []int{1, 16, 256}, Sizes: []int64{8, 4096, 262144}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 9 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Bandwidth grows with msg/sync at fixed size (latency overlap).
	p1, _ := r.At(1, 8)
	p256, _ := r.At(256, 8)
	if p256.GBs <= p1.GBs {
		t.Fatalf("no overlap gain: n=1 %.3f vs n=256 %.3f GB/s", p1.GBs, p256.GBs)
	}
	// Bandwidth grows with size at fixed n.
	s8, _ := r.At(16, 8)
	s256k, _ := r.At(16, 262144)
	if s256k.GBs <= s8.GBs {
		t.Fatal("no size scaling")
	}
	// Large windows of large messages approach (but never exceed) IF peak.
	best := r.MaxGBs()
	if best < 20 || best > 32.1 {
		t.Fatalf("peak sweep bandwidth = %.1f GB/s, want near 32", best)
	}
}

func TestTwoSidedSingleMessageLatency(t *testing.T) {
	r, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: TwoSided, Ranks: 2, Ns: []int{1}, Sizes: []int64{8}})
	if err != nil {
		t.Fatal(err)
	}
	el := r.Points[0].Elapsed.Microseconds()
	// Measured from the receiver's Waitall: ~soft+wire latency.
	if el < 2.0 || el > 4.5 {
		t.Fatalf("1-msg window = %.2fus", el)
	}
}

func TestOneSidedBeatsTwoSidedAtHighConcurrency(t *testing.T) {
	// Fig 3a: on Cray MPI, one-sided overtakes two-sided as msg/sync
	// grows.
	pm := cfg(t, "perlmutter-cpu")
	ns := []int{1, 256}
	sizes := []int64{64}
	two, err := Sweep(pm, Spec{Transport: TwoSided, Ranks: 2, Ns: ns, Sizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Sweep(pm, Spec{Transport: OneSided, Ranks: 2, Ns: ns, Sizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := two.At(256, 64)
	t1, _ := one.At(256, 64)
	if t1.GBs <= t2.GBs {
		t.Fatalf("at 256 msg/sync one-sided %.4f should beat two-sided %.4f GB/s", t1.GBs, t2.GBs)
	}
}

func TestSpectrumOneSidedAlwaysWorse(t *testing.T) {
	// Fig 3c: Summit Spectrum MPI one-sided is consistently below
	// two-sided.
	sm := cfg(t, "summit-cpu")
	ns := []int{1, 16, 256}
	sizes := []int64{8, 4096, 262144}
	two, err := Sweep(sm, Spec{Transport: TwoSided, Ranks: 2, Ns: ns, Sizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Sweep(sm, Spec{Transport: OneSided, Ranks: 2, Ns: ns, Sizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		for _, b := range sizes {
			p2, _ := two.At(n, b)
			p1, _ := one.At(n, b)
			if p1.GBs > p2.GBs*1.02 {
				t.Fatalf("n=%d B=%d: Spectrum one-sided %.4f beats two-sided %.4f", n, b, p1.GBs, p2.GBs)
			}
		}
	}
}

func TestStrictProtocolCost(t *testing.T) {
	// Fig 6b: strict 4-op protocol costs ~5us per message and does
	// not improve with msg/sync (each message is 2 serialized RTTs).
	r, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: OneSidedStrict, Ranks: 2, Ns: []int{1, 16}, Sizes: []int64{400}})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := r.At(1, 400)
	if us := p1.Elapsed.Microseconds(); us < 4.2 || us > 6.0 {
		t.Fatalf("strict 1-msg = %.2fus, want ~5us", us)
	}
	p16, _ := r.At(16, 400)
	per := p16.Elapsed.Microseconds() / 16
	if per < 3.5 {
		t.Fatalf("strict per-message at n=16 = %.2fus; should not amortize below ~2 RTTs", per)
	}
}

func TestShmemSweep(t *testing.T) {
	r, err := Sweep(cfg(t, "perlmutter-gpu"), Spec{Transport: ShmemPutSignal, Ranks: 2, Ns: []int{1, 64}, Sizes: []int64{8, 65536}})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := r.At(1, 8)
	if us := p1.Elapsed.Microseconds(); us < 3.4 || us > 4.8 {
		t.Fatalf("GPU 1-msg = %.2fus, want ~4us", us)
	}
	p64, _ := r.At(64, 65536)
	if p64.GBs < 15 {
		t.Fatalf("GPU 64x64KiB = %.1f GB/s, want substantial", p64.GBs)
	}
	// GPU sustained bandwidth beats the CPU counterpart (§II).
	cpu, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: TwoSided, Ranks: 2, Ns: []int{64}, Sizes: []int64{65536}})
	if err != nil {
		t.Fatal(err)
	}
	c64, _ := cpu.At(64, 65536)
	if p64.GBs <= c64.GBs {
		t.Fatalf("GPU %.1f GB/s should exceed CPU %.1f GB/s", p64.GBs, c64.GBs)
	}
}

func TestCASLatencies(t *testing.T) {
	// Paper §III-C: Perlmutter GPU 0.8us; Summit 1.0 intra / 1.6
	// cross; CPU one-sided ~2us.
	pg, err := CASLatencyCached(nil, cfg(t, "perlmutter-gpu"), 4, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if us := pg.Microseconds(); us < 0.6 || us > 1.0 {
		t.Fatalf("Perlmutter GPU CAS = %.2fus", us)
	}
	in, _ := CASLatencyCached(nil, cfg(t, "summit-gpu"), 6, 1, 10)
	cross, _ := CASLatencyCached(nil, cfg(t, "summit-gpu"), 6, 3, 10)
	if cross <= in {
		t.Fatalf("cross-socket CAS (%v) should exceed in-island (%v)", cross, in)
	}
	cpu, err := OneSidedCASLatencyCached(nil, cfg(t, "perlmutter-cpu"), 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if us := cpu.Microseconds(); us < 1.6 || us > 2.5 {
		t.Fatalf("CPU one-sided CAS = %.2fus, want ~2us", us)
	}
}

func TestSweepSplitFig10(t *testing.T) {
	volumes := []int64{1024, 16384, 131072, 1 << 20}
	pts, err := SweepSplitCached(nil, cfg(t, "perlmutter-gpu"), 4, volumes)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(volumes) {
		t.Fatalf("points = %d", len(pts))
	}
	// Small volumes: no benefit. Large (>=131KB): ~2.9x (paper).
	if pts[0].Speedup > 1.3 {
		t.Fatalf("1KiB split speedup = %.2f, want ~1", pts[0].Speedup)
	}
	big := pts[len(pts)-1].Speedup
	if big < 2.3 || big > 4.0 {
		t.Fatalf("1MiB split speedup = %.2f, want ~2.9x", big)
	}
	at131k := pts[2].Speedup
	if at131k < 1.5 {
		t.Fatalf("131KiB split speedup = %.2f, want meaningful gain", at131k)
	}
}

func TestFitFromMeasuredSweep(t *testing.T) {
	// The measured two-sided sweep must be well explained by a LogGP
	// fit (this is how the paper draws its ceilings).
	r, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: TwoSided, Ranks: 2, Ns: DefaultNs(), Sizes: DefaultSizes()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := loggp.Fit(r.Samples(), 2, 50*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if fe := loggp.FitError(p, r.Samples()); fe > 0.35 {
		t.Fatalf("fit RMS relative error = %.2f", fe)
	}
	// Fitted bandwidth near the IF link.
	if p.Bandwidth < 24e9 || p.Bandwidth > 40e9 {
		t.Fatalf("fitted bandwidth = %.1f GB/s", p.Bandwidth/1e9)
	}
	// Fitted latency in the microsecond range.
	if p.L < sim.Microsecond || p.L > 6*sim.Microsecond {
		t.Fatalf("fitted L = %v", p.L)
	}
}

func TestSweepDeterministicAcrossJobs(t *testing.T) {
	// The same sweep run sequentially and on a parallel pool must
	// produce bit-identical results: every point is an isolated
	// simulation and the scheduler reports in submission order.
	ns := []int{1, 16, 256}
	sizes := []int64{8, 4096, 262144}
	cases := []struct {
		transport Transport
		machine   string
	}{
		{TwoSided, "perlmutter-cpu"},
		{OneSided, "frontier-cpu"},
		{OneSidedStrict, "summit-cpu"},
		{ShmemPutSignal, "perlmutter-gpu"},
	}
	for _, c := range cases {
		m := cfg(t, c.machine)
		seq, err := Sweep(m, Spec{Transport: c.transport, Ns: ns, Sizes: sizes, Jobs: 1})
		if err != nil {
			t.Fatalf("%v sequential: %v", c.transport, err)
		}
		par, err := Sweep(m, Spec{Transport: c.transport, Ns: ns, Sizes: sizes, Jobs: 8})
		if err != nil {
			t.Fatalf("%v parallel: %v", c.transport, err)
		}
		if len(seq.Points) != len(ns)*len(sizes) {
			t.Fatalf("%v: %d points", c.transport, len(seq.Points))
		}
		if !reflect.DeepEqual(seq.Points, par.Points) {
			t.Fatalf("%v on %s: parallel sweep diverged\nseq: %+v\npar: %+v",
				c.transport, c.machine, seq.Points, par.Points)
		}
		if seq.Machine != par.Machine || seq.Transport != par.Transport {
			t.Fatalf("%v: metadata diverged", c.transport)
		}
		if par.Sched == nil || par.Sched.Host == nil || par.Sched.Host.Jobs != len(seq.Points) {
			t.Fatalf("%v: missing sched stats: %+v", c.transport, par.Sched)
		}
	}
}

func TestSweepSpecDefaults(t *testing.T) {
	// Zero values fill in the paper grids, 2 ranks, sequential jobs.
	r, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: TwoSided, Ns: []int{1}, Sizes: []int64{8}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Transport != "two-sided" || len(r.Points) != 1 {
		t.Fatalf("defaulted sweep: %+v", r)
	}
	if _, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: TwoSided, Ranks: 1}); err == nil {
		t.Fatal("1-rank sweep should error")
	}
	if _, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: Transport(99), Ns: []int{1}, Sizes: []int64{8}}); err == nil {
		t.Fatal("unknown transport should error")
	}
}

func TestLegacyWrappersMatchSweep(t *testing.T) {
	// The deprecated entry points are thin shims over Sweep.
	m := cfg(t, "perlmutter-cpu")
	legacy, err := Sweep(m, Spec{Transport: TwoSided, Ranks: 2, Ns: []int{16}, Sizes: []int64{4096}})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Sweep(m, Spec{Transport: TwoSided, Ns: []int{16}, Sizes: []int64{4096}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Points, spec.Points) || legacy.Transport != spec.Transport {
		t.Fatalf("wrapper diverged: %+v vs %+v", legacy, spec)
	}
}

func TestTransportNames(t *testing.T) {
	for _, tr := range []Transport{TwoSided, OneSided, OneSidedStrict, ShmemPutSignal} {
		got, err := ParseTransport(tr.String())
		if err != nil || got != tr {
			t.Fatalf("round trip %v: got %v, err %v", tr, got, err)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil {
		t.Fatal("want parse error")
	}
}

func TestAtIndexTracksAppends(t *testing.T) {
	r := &Result{}
	r.Points = append(r.Points, Point{N: 1, Bytes: 8, GBs: 1})
	if p, ok := r.At(1, 8); !ok || p.GBs != 1 {
		t.Fatalf("At(1,8) = %+v, %v", p, ok)
	}
	// Growing Points after a lookup must invalidate the lazy index.
	r.Points = append(r.Points, Point{N: 2, Bytes: 16, GBs: 2})
	if p, ok := r.At(2, 16); !ok || p.GBs != 2 {
		t.Fatalf("At(2,16) after append = %+v, %v", p, ok)
	}
	// Duplicate keys resolve to the first point, like the old scan.
	r.Points = append(r.Points, Point{N: 1, Bytes: 8, GBs: 99})
	if p, _ := r.At(1, 8); p.GBs != 1 {
		t.Fatalf("duplicate key should keep first point, got %+v", p)
	}
}

func TestAtIndexSurvivesInPlaceReplacement(t *testing.T) {
	r := &Result{Points: []Point{
		{N: 1, Bytes: 8, GBs: 1},
		{N: 2, Bytes: 16, GBs: 2},
	}}
	if _, ok := r.At(1, 8); !ok {
		t.Fatal("warm-up lookup failed")
	}
	// Rewrite Points without changing the length: the lazy index's
	// length check cannot see this, so At must self-heal.
	r.Points[0] = Point{N: 7, Bytes: 64, GBs: 7}
	r.Points[1] = Point{N: 2, Bytes: 16, GBs: 22}
	if p, ok := r.At(7, 64); !ok || p.GBs != 7 {
		t.Fatalf("At(7,64) after replacement = %+v, %v", p, ok)
	}
	if p, ok := r.At(2, 16); !ok || p.GBs != 22 {
		t.Fatalf("At(2,16) served a stale point: %+v, %v", p, ok)
	}
	if _, ok := r.At(1, 8); ok {
		t.Fatal("At(1,8) still hits after its point was replaced")
	}
}

func TestSweepCacheHitsMatchColdRun(t *testing.T) {
	// A warm sweep served entirely from cache must be byte-identical
	// to the cold run, and the per-sweep counters must account every
	// point.
	m := cfg(t, "perlmutter-cpu")
	c, err := pointcache.New(pointcache.Mem, "")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Transport: OneSided, Ns: []int{1, 16}, Sizes: []int64{8, 4096}, Cache: c}
	cold, err := Sweep(m, spec)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.Sched.Cache
	if cs.Lookups != 4 || cs.Hits != 0 || cs.Misses != 4 || cs.Stores != 4 {
		t.Fatalf("cold counters: %+v", cs)
	}
	warm, err := Sweep(m, spec)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Sched.Cache
	if ws.Lookups != 4 || ws.Hits != 4 || ws.MemHits != 4 || ws.Misses != 0 || ws.Stores != 0 {
		t.Fatalf("warm counters: %+v", ws)
	}
	if ws.BytesSaved != 1*8+16*8+1*4096+16*4096 {
		t.Fatalf("bytes saved = %d", ws.BytesSaved)
	}
	if !reflect.DeepEqual(cold.Points, warm.Points) {
		t.Fatalf("warm sweep diverged\ncold: %+v\nwarm: %+v", cold.Points, warm.Points)
	}
	// Uncached sweeps match too (cache never changes simulated output).
	off, err := Sweep(m, Spec{Transport: OneSided, Ns: []int{1, 16}, Sizes: []int64{8, 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off.Points, cold.Points) {
		t.Fatal("cached sweep diverged from uncached")
	}
	if off.Sched.Cache.Lookups != 0 {
		t.Fatalf("uncached sweep recorded cache traffic: %+v", off.Sched.Cache)
	}
}

func TestRunStatsHostFields(t *testing.T) {
	// v1 consumers read scheduler fields through the explicit Host
	// split; the flat promoted aliases are gone.
	r, err := Sweep(cfg(t, "perlmutter-cpu"), Spec{Transport: TwoSided, Ns: []int{1, 16}, Sizes: []int64{8}, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.Host == nil {
		t.Fatal("no host stats")
	}
	if r.Sched.Host.Jobs != 2 {
		t.Fatalf("jobs = %d", r.Sched.Host.Jobs)
	}
	if r.Sched.Host.Wall <= 0 {
		t.Fatalf("wall = %v", r.Sched.Host.Wall)
	}
}

func TestCachedKernelsMatchUncached(t *testing.T) {
	// CAS latencies and split runs memoize through the same cache and
	// must return identical times cold, warm, and uncached (nil cache).
	c, err := pointcache.New(pointcache.Mem, "")
	if err != nil {
		t.Fatal(err)
	}
	pg := cfg(t, "perlmutter-gpu")
	plain, err := CASLatencyCached(nil, pg, 4, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := CASLatencyCached(c, pg, 4, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := CASLatencyCached(c, pg, 4, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if plain != cold || cold != warm {
		t.Fatalf("CAS diverged: plain %v cold %v warm %v", plain, cold, warm)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Stores != 1 {
		t.Fatalf("CAS cache counters: %+v", st)
	}
	pc := cfg(t, "perlmutter-cpu")
	mplain, err := OneSidedCASLatencyCached(nil, pc, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	mwarm, err := OneSidedCASLatencyCached(c, pc, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mplain != mwarm {
		t.Fatalf("MPI CAS diverged: %v vs %v", mplain, mwarm)
	}
	vols := []int64{1024, 131072}
	sp, err := SweepSplitCached(nil, pg, 4, vols)
	if err != nil {
		t.Fatal(err)
	}
	spc, err := SweepSplitCached(c, pg, 4, vols)
	if err != nil {
		t.Fatal(err)
	}
	spw, err := SweepSplitCached(c, pg, 4, vols)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, spc) || !reflect.DeepEqual(spc, spw) {
		t.Fatalf("split runs diverged:\nplain %+v\ncold  %+v\nwarm  %+v", sp, spc, spw)
	}
}

func TestExpandPointsMatchesSweepOrder(t *testing.T) {
	m := cfg(t, "frontier-cpu")
	spec := Spec{Transport: OneSided, Ns: []int{1, 16}, Sizes: []int64{8, 512}}
	grid := ExpandPoints(m, spec)
	r, err := Sweep(m, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(r.Points) {
		t.Fatalf("grid %d vs points %d", len(grid), len(r.Points))
	}
	for i, ps := range grid {
		if ps.N != r.Points[i].N || ps.Bytes != r.Points[i].Bytes {
			t.Fatalf("point %d: grid (%d,%d) vs sweep (%d,%d)", i, ps.N, ps.Bytes, r.Points[i].N, r.Points[i].Bytes)
		}
		p, err := MeasurePoint(ps)
		if err != nil {
			t.Fatal(err)
		}
		if p != r.Points[i] {
			t.Fatalf("point %d: MeasurePoint %+v vs Sweep %+v", i, p, r.Points[i])
		}
	}
	// Defaulted ranks hash like explicit 2 so planner and sweep agree.
	zero := PointSpec{Machine: m, Transport: OneSided, N: 1, Bytes: 8}
	two := PointSpec{Machine: m, Transport: OneSided, Ranks: 2, N: 1, Bytes: 8}
	if zero.Key() != two.Key() {
		t.Fatal("Ranks 0 and 2 should share a key")
	}
	if _, err := MeasurePoint(PointSpec{Machine: m, Transport: OneSided, Ranks: 1, N: 1, Bytes: 8}); err == nil {
		t.Fatal("1-rank point should error")
	}
}

func TestSeriesGrouping(t *testing.T) {
	r := &Result{Transport: "t"}
	r.Points = []Point{
		{N: 1, Bytes: 8, GBs: 1},
		{N: 1, Bytes: 64, GBs: 2},
		{N: 10, Bytes: 8, GBs: 3},
	}
	ss := r.Series()
	if len(ss) != 2 {
		t.Fatalf("series = %d", len(ss))
	}
	if len(ss[0].X) != 2 || len(ss[1].X) != 1 {
		t.Fatalf("grouping wrong: %+v", ss)
	}
	if _, ok := r.At(5, 5); ok {
		t.Fatal("At should miss")
	}
}
