// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the index). Each benchmark
// runs the experiment's core measurement under b.N and reports the
// relevant *simulated* quantity (sim_us, GB/s, updates/s) alongside
// the wall-clock cost of regenerating it.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=Fig9 -benchmem
package msgroofline

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"msgroofline/internal/bench"
	"msgroofline/internal/ccl"
	"msgroofline/internal/comm"
	"msgroofline/internal/experiments"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
	"msgroofline/internal/pointcache"
	simruntime "msgroofline/internal/runtime"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
	"msgroofline/internal/sim/simbench"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/stencil"
)

func mc(b *testing.B, name string) *machine.Config {
	b.Helper()
	c, err := machine.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkSuiteQuick regenerates the entire quick-scale experiment
// suite through the concurrent scheduler (the cmd/experiments path).
func BenchmarkSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := experiments.RunSuite(experiments.Registry(), experiments.SuiteOptions{Scale: experiments.Quick, Jobs: sweepJobs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates the platform table.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates the workload characterization from
// traced runs.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(&experiments.Env{Scale: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1MessageRoofline measures the Frontier one-sided sweep
// and fits the roofline.
func BenchmarkFig1MessageRoofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(&experiments.Env{Scale: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Topology rebuilds and queries all five fabrics.
func BenchmarkFig2Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepJobs is the scheduler width the benchmark suite's sweeps use:
// all cores, so the suite itself exercises (and benefits from) the
// parallel sweep scheduler.
var sweepJobs = runtime.GOMAXPROCS(0)

// Fig 3: two-sided vs one-sided MPI bandwidth per CPU machine. The
// reported GB/s metric is the 256-msg/sync 64 KiB point.
func benchFig3(b *testing.B, machineName string, oneSided bool) {
	cfg := mc(b, machineName)
	transport := bench.TwoSided
	if oneSided {
		transport = bench.OneSided
	}
	spec := bench.Spec{Transport: transport, Ns: []int{256}, Sizes: []int64{65536}, Jobs: sweepJobs}
	var gbs float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Sweep(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := res.At(256, 65536)
		gbs = p.GBs
	}
	b.ReportMetric(gbs, "simGB/s")
}

func BenchmarkFig3PerlmutterCPUTwoSided(b *testing.B) { benchFig3(b, "perlmutter-cpu", false) }
func BenchmarkFig3PerlmutterCPUOneSided(b *testing.B) { benchFig3(b, "perlmutter-cpu", true) }
func BenchmarkFig3FrontierCPUTwoSided(b *testing.B)   { benchFig3(b, "frontier-cpu", false) }
func BenchmarkFig3FrontierCPUOneSided(b *testing.B)   { benchFig3(b, "frontier-cpu", true) }
func BenchmarkFig3SummitCPUTwoSided(b *testing.B)     { benchFig3(b, "summit-cpu", false) }
func BenchmarkFig3SummitCPUOneSided(b *testing.B)     { benchFig3(b, "summit-cpu", true) }

// Fig 4: GPU put-with-signal sweeps and CAS latency.
func benchFig4Put(b *testing.B, machineName string) {
	cfg := mc(b, machineName)
	spec := bench.Spec{Transport: bench.ShmemPutSignal, Ns: []int{256}, Sizes: []int64{65536}, Jobs: sweepJobs}
	var gbs float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Sweep(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := res.At(256, 65536)
		gbs = p.GBs
	}
	b.ReportMetric(gbs, "simGB/s")
}

func BenchmarkFig4PerlmutterGPUPutSignal(b *testing.B) { benchFig4Put(b, "perlmutter-gpu") }
func BenchmarkFig4SummitGPUPutSignal(b *testing.B)     { benchFig4Put(b, "summit-gpu") }

func BenchmarkFig4GPUAtomicCAS(b *testing.B) {
	cfg := mc(b, "perlmutter-gpu")
	var us float64
	for i := 0; i < b.N; i++ {
		lat, err := bench.CASLatencyCached(nil, cfg, 4, 1, 64)
		if err != nil {
			b.Fatal(err)
		}
		us = lat.Microseconds()
	}
	b.ReportMetric(us, "simCAS_us")
}

// Fig 5: stencil per-iteration time per transport.
func benchFig5(b *testing.B, kind comm.Kind, machineName string, px, py int) {
	cfg := stencil.Config{Machine: mc(b, machineName), Transport: kind, Grid: 2048, Iters: 4, PX: px, PY: py}
	var us float64
	for i := 0; i < b.N; i++ {
		res, err := stencil.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		us = res.PerIter.Microseconds()
	}
	b.ReportMetric(us, "simIter_us")
}

func BenchmarkFig5StencilTwoSided(b *testing.B) {
	benchFig5(b, comm.TwoSided, "perlmutter-cpu", 8, 8)
}
func BenchmarkFig5StencilOneSided(b *testing.B) {
	benchFig5(b, comm.OneSided, "perlmutter-cpu", 8, 8)
}
func BenchmarkFig5StencilGPU(b *testing.B) { benchFig5(b, comm.Shmem, "perlmutter-gpu", 2, 2) }

// Fig 6: workload bounds on the roofline.
func BenchmarkFig6WorkloadBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(&experiments.Env{Scale: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 7: latency vs msg/sync.
func BenchmarkFig7LatencyVsMsgSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(&experiments.Env{Scale: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 8: SpTRSV solve per transport; reports simulated solve time.
func benchFig8(b *testing.B, kind comm.Kind, machineName string, ranks int) {
	m, err := spmat.Generate(spmat.Params{N: 2400, MeanSnode: 24, Fill: 1.0, Seed: 20230901})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sptrsv.Config{Machine: mc(b, machineName), Transport: kind, Matrix: m, Ranks: ranks}
	var us float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sptrsv.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		us = res.Elapsed.Microseconds()
	}
	b.ReportMetric(us, "simSolve_us")
}

func BenchmarkFig8SpTRSVTwoSided(b *testing.B) { benchFig8(b, comm.TwoSided, "perlmutter-cpu", 16) }
func BenchmarkFig8SpTRSVOneSided(b *testing.B) { benchFig8(b, comm.OneSided, "perlmutter-cpu", 16) }
func BenchmarkFig8SpTRSVGPU(b *testing.B)      { benchFig8(b, comm.Shmem, "perlmutter-gpu", 4) }
func BenchmarkFig8SpTRSVSummitGPU(b *testing.B) {
	benchFig8(b, comm.Shmem, "summit-gpu", 4)
}

// Fig 9: hashtable updates/s per transport.
func benchFig9(b *testing.B, kind comm.Kind, machineName string, ranks int) {
	cfg := hashtable.Config{Machine: mc(b, machineName), Transport: kind, Ranks: ranks, TotalInserts: 64 * ranks}
	var ups float64
	for i := 0; i < b.N; i++ {
		res, err := hashtable.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ups = res.UpdatesPerSec
	}
	b.ReportMetric(ups, "simUpdates/s")
}

func BenchmarkFig9HashtableTwoSided(b *testing.B) { benchFig9(b, comm.TwoSided, "perlmutter-cpu", 32) }
func BenchmarkFig9HashtableOneSided(b *testing.B) { benchFig9(b, comm.OneSided, "perlmutter-cpu", 32) }
func BenchmarkFig9HashtableGPU(b *testing.B)      { benchFig9(b, comm.Shmem, "perlmutter-gpu", 4) }
func BenchmarkFig9HashtableSummitGPU(b *testing.B) {
	benchFig9(b, comm.Shmem, "summit-gpu", 6)
}

// Fig 10: message splitting speedup; reports the 1 MiB 4-way speedup.
func BenchmarkFig10Split(b *testing.B) {
	cfg := mc(b, "perlmutter-gpu")
	var speedup float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.SweepSplitCached(nil, cfg, 4, []int64{1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		speedup = pts[0].Speedup
	}
	b.ReportMetric(speedup, "simSpeedup_x")
}

// Ablation benches (DESIGN.md §6).

// BenchmarkAblationPollingCost quantifies the Listing-1 receiver scan
// cost: simulated one-sided solve time with charged vs free polling.
func BenchmarkAblationPollingCost(b *testing.B) {
	m, err := spmat.Generate(spmat.Params{N: 2400, MeanSnode: 24, Fill: 1.0, Seed: 20230901})
	if err != nil {
		b.Fatal(err)
	}
	pm := mc(b, "perlmutter-cpu")
	var overhead float64
	for i := 0; i < b.N; i++ {
		with, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.OneSided, Matrix: m, Ranks: 16})
		if err != nil {
			b.Fatal(err)
		}
		free, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.OneSided, Matrix: m, Ranks: 16, PollCheck: -1})
		if err != nil {
			b.Fatal(err)
		}
		overhead = (with.Elapsed.Seconds() - free.Elapsed.Seconds()) / free.Elapsed.Seconds() * 100
	}
	b.ReportMetric(overhead, "pollOverhead_%")
}

// BenchmarkAblationSingleChannel quantifies what the Fig-10 speedup
// costs to lose: splitting onto one channel instead of four.
func BenchmarkAblationSingleChannel(b *testing.B) {
	cfg := mc(b, "perlmutter-gpu")
	var ratio float64
	for i := 0; i < b.N; i++ {
		multi, err := bench.SweepSplitCached(nil, cfg, 4, []int64{1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		single, err := bench.SweepSplitCached(nil, cfg, 1, []int64{1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		ratio = single[0].Split.Seconds() / multi[0].Split.Seconds()
	}
	b.ReportMetric(ratio, "channelGain_x")
}

// BenchmarkAblationStrictProtocol compares the strict per-message
// 4-op one-sided protocol against the windowed one (why SpTRSV can't
// batch its flushes).
func BenchmarkAblationStrictProtocol(b *testing.B) {
	cfg := mc(b, "perlmutter-cpu")
	var ratio float64
	for i := 0; i < b.N; i++ {
		strict, err := bench.Sweep(cfg, bench.Spec{Transport: bench.OneSidedStrict, Ns: []int{16}, Sizes: []int64{400}, Jobs: sweepJobs})
		if err != nil {
			b.Fatal(err)
		}
		windowed, err := bench.Sweep(cfg, bench.Spec{Transport: bench.OneSided, Ns: []int{16}, Sizes: []int64{400}, Jobs: sweepJobs})
		if err != nil {
			b.Fatal(err)
		}
		sp, _ := strict.At(16, 400)
		wp, _ := windowed.At(16, 400)
		ratio = sp.Elapsed.Seconds() / wp.Elapsed.Seconds()
	}
	b.ReportMetric(ratio, "strictPenalty_x")
}

// Extension benches (EXPERIMENTS.md "Extensions beyond the paper").

// BenchmarkExtensionCCLAllReduce measures the NCCL-style ring
// allreduce of a 2 MiB vector on Perlmutter GPU, reporting algorithm
// bandwidth.
func BenchmarkExtensionCCLAllReduce(b *testing.B) {
	cfg := mc(b, "perlmutter-gpu")
	const elems = 1 << 18
	var algbw float64
	for i := 0; i < b.N; i++ {
		plan, err := ccl.NewPlan(4, elems)
		if err != nil {
			b.Fatal(err)
		}
		job, err := shmem.NewJob(cfg, 4, plan.HeapBytes())
		if err != nil {
			b.Fatal(err)
		}
		if err := plan.Bind(job, 0); err != nil {
			b.Fatal(err)
		}
		err = job.Launch(func(sc *shmem.Ctx) {
			c := plan.NewCtx(sc)
			data := make([]float64, elems)
			for j := range data {
				data[j] = float64(sc.MyPE() + j)
			}
			if e := c.AllReduce(data); e != nil {
				b.Error(e)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		moved := float64(8*elems) * 2 * 3 / 4
		algbw = moved / job.Elapsed().Seconds() / 1e9
	}
	b.ReportMetric(algbw, "simAlgGB/s")
}

// BenchmarkExtensionFrontierGPUSpTRSV runs the solver on the
// projected ROC_SHMEM platform the paper could not measure.
func BenchmarkExtensionFrontierGPUSpTRSV(b *testing.B) {
	benchFig8(b, comm.Shmem, "frontier-gpu", 4)
}

// BenchmarkAblationCutThrough quantifies DESIGN.md ablation #1: the
// delivered-time ratio of store-and-forward vs cut-through timing on
// Summit's 3-hop cross-island path for a 64 KiB message. The reported
// metric bounds the error our store-and-forward choice introduces on
// the deepest path in the catalog.
func BenchmarkAblationCutThrough(b *testing.B) {
	cfg := mc(b, "summit-gpu")
	var ratio float64
	for i := 0; i < b.N; i++ {
		inSF, err := cfg.Instantiate(6)
		if err != nil {
			b.Fatal(err)
		}
		sf, err := inSF.Net.Transfer(0, "sg:g0", "sg:g3", 65536, 0)
		if err != nil {
			b.Fatal(err)
		}
		inCT, err := cfg.Instantiate(6)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := inCT.Net.TransferCutThrough(0, "sg:g0", "sg:g3", 65536, 0)
		if err != nil {
			b.Fatal(err)
		}
		ratio = sf.Seconds() / ct.Seconds()
	}
	b.ReportMetric(ratio, "sfOverCt_x")
}

// ---------------------------------------------------------------------
// Perf trajectory (BENCH_sim.json).
//
// Every recorded measurement is one benchRecord in the single
// `records` array of BENCH_sim.json at the repo root. Run
//
//	BENCH_RECORD=<label> go test -run TestRecordBench -timeout 60m .
//
// to append one record per leg of benchLegs; perf PRs record a
// "before" and an "after" label on the same host and diff them. Each
// leg runs benchSamples times, so a record carries the spread a diff
// has to clear. A subtest pattern (-run 'TestRecordBench/suite')
// records a subset.

const (
	benchSimPath    = "BENCH_sim.json"
	benchFileSchema = "bench-sim/v2"
	// benchRecordSchema tags records TestRecordBench writes; migrated
	// records keep the name of the schema they were first written in.
	benchRecordSchema = "bench/v1"
	// benchLegArg is the positional argument that makes a re-executed
	// test binary run one leg in-process and print its record on a
	// line starting with benchLegPrefix.
	benchLegArg    = "bench-record-leg"
	benchLegPrefix = "bench-record: "
	// benchSamples is how many child processes run each leg; the
	// record is the median-wall sample's, with the wall quartiles and
	// the median peak RSS of all of them.
	benchSamples = 5
)

type benchFile struct {
	Schema  string        `json:"schema"`
	Records []benchRecord `json:"records"`
}

// benchRecord is one measurement of one workload at one knob setting.
// Fields a leg does not measure stay absent.
type benchRecord struct {
	Schema   string `json:"schema"`
	Label    string `json:"label"`
	Date     string `json:"date"`
	Workload string `json:"workload"`
	// Layer is the stack layer the workload isolates: "engine" (the
	// sequential engine), "window" (the coupled window loop alone),
	// "stack" (a kernel through the full transport stack) or "suite"
	// (the end-to-end quick suite).
	Layer      string     `json:"layer"`
	Knobs      benchKnobs `json:"knobs"`
	Ranks      int        `json:"ranks,omitempty"`
	Groups     int        `json:"groups,omitempty"`
	Cores      int        `json:"cores,omitempty"`
	GOMAXPROCS int        `json:"gomaxprocs,omitempty"`

	WallMs       float64 `json:"wall_ms,omitempty"`
	Events       int64   `json:"events,omitempty"`
	Windows      uint64  `json:"windows,omitempty"`
	Dispatches   uint64  `json:"dispatches,omitempty"`
	NsPerEvent   float64 `json:"ns_per_event,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// BusyWall is summed per-group busy time over wall time: the
	// parallel-efficiency figure on runners too small to show speedup.
	BusyWall float64 `json:"busy_wall,omitempty"`
	// ExecMs, BarrierMs and ScanMs split the window loops' wall time
	// (sim.CoupledEngine.PhaseWall); BarrierShare is the barrier's
	// share of their sum.
	ExecMs       float64 `json:"exec_ms,omitempty"`
	BarrierMs    float64 `json:"barrier_ms,omitempty"`
	ScanMs       float64 `json:"scan_ms,omitempty"`
	BarrierShare float64 `json:"barrier_share,omitempty"`
	// AllocsPerOp is a pointer so a measured 0 survives omitempty.
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// PeakRSSMb is the peak resident set of a process that ran the leg
	// alone (the median over the samples).
	PeakRSSMb float64 `json:"peak_rss_mb,omitempty"`
	// Samples counts the child processes the record summarizes;
	// WallMsQ1 and WallMsQ3 are the quartiles of their wall times.
	// Records written before sampling carry none of the three.
	Samples  int     `json:"samples,omitempty"`
	WallMsQ1 float64 `json:"wall_ms_q1,omitempty"`
	WallMsQ3 float64 `json:"wall_ms_q3,omitempty"`
	// Counters holds leg-specific counts (cache hit rate, planner
	// census).
	Counters map[string]float64 `json:"counters,omitempty"`
}

// benchKnobs are the settings a record was measured at. Workers is
// the window-worker count of a world (the -shards flag).
type benchKnobs struct {
	Workers int    `json:"workers,omitempty"`
	Jobs    int    `json:"jobs,omitempty"`
	Cache   string `json:"cache,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func (r *benchRecord) setRate(wall time.Duration, events int64) {
	r.WallMs = ms(wall)
	r.Events = events
	if events > 0 {
		r.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		r.EventsPerSec = 1e9 / r.NsPerEvent
	}
}

func (r *benchRecord) setPhases(exec, barrier, scan time.Duration) {
	r.ExecMs, r.BarrierMs, r.ScanMs = ms(exec), ms(barrier), ms(scan)
	if phase := exec + barrier + scan; phase > 0 {
		r.BarrierShare = float64(barrier) / float64(phase)
	}
}

// setUsage fills the engine counters from the runtime's usage tally
// accumulated since before.
func (r *benchRecord) setUsage(before simruntime.UsageSummary, wall time.Duration) {
	after := simruntime.Usage()
	var events int64
	for _, n := range after.Events {
		events += n
	}
	for _, n := range before.Events {
		events -= n
	}
	r.setRate(wall, events)
	r.Windows = after.Windows - before.Windows
	r.Dispatches = after.Dispatches - before.Dispatches
	r.BusyWall = float64(after.Busy-before.Busy) / float64(wall)
	r.setPhases(after.ExecWall-before.ExecWall, after.BarrierWall-before.BarrierWall,
		after.ScanWall-before.ScanWall)
}

// benchLeg is one recorder measurement. run executes in a child
// process of its own; scratch is a directory shared by every leg of
// one recorder run.
type benchLeg struct {
	name string
	run  func(t *testing.T, scratch string) benchRecord
}

func benchLegs() []benchLeg {
	legs := []benchLeg{
		engineLeg("EngineSleepSignal", simbench.PingPong),
		engineLeg("EngineSleepYield", simbench.SleepYield),
		engineLeg("EngineTimerChurn", func(n int) *sim.Engine { return simbench.TimerChurn(64, n/64+1) }),
		engineLeg("EngineBroadcast", func(n int) *sim.Engine { return simbench.Broadcast(32, n/32+1) }),
		// cold-disk fills the scratch cache that warm-disk then reads.
		suiteLeg("off"), suiteLeg("cold-disk"), suiteLeg("warm-disk"),
	}
	for _, s := range []int{1, 2, 4} {
		legs = append(legs, stencilLeg(fmt.Sprintf("stencil-frontier-workers%d", s), benchKnobs{Workers: s},
			stencil.Config{Transport: comm.OneSided, Grid: 512, Iters: 96, PX: 8, PY: 8, Shards: s}, "frontier-cpu"))
	}
	for _, w := range []int{1, 2, 4} {
		legs = append(legs, pholdLeg(w))
	}
	for _, w := range []int{1, 2, 4} {
		legs = append(legs, stencilLeg(fmt.Sprintf("stencil-df10k-workers%d", w), benchKnobs{Workers: w},
			stencil.Config{Transport: comm.OneSided, Grid: 1280, Iters: 2, PX: 128, PY: 80, Shards: w}, "dragonfly-10k"))
	}
	return legs
}

// engineLeg measures one sequential-engine microbenchmark.
func engineLeg(workload string, run func(n int) *sim.Engine) benchLeg {
	return benchLeg{workload, func(t *testing.T, _ string) benchRecord {
		var eng *sim.Engine
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			eng = run(b.N)
		})
		allocs := res.AllocsPerOp()
		r := benchRecord{Workload: workload, Layer: "engine", AllocsPerOp: &allocs}
		r.setRate(res.T, int64(eng.Executed()))
		return r
	}}
}

// suiteLeg regenerates the quick suite under one cache configuration
// ("off", "cold-disk" or "warm-disk") and records the hit rate and the
// dedup planner's census. Every cold-disk sample starts from an empty
// cache directory; the last one leaves it full for warm-disk.
func suiteLeg(cache string) benchLeg {
	return benchLeg{"suite-" + cache, func(t *testing.T, scratch string) benchRecord {
		var pc *pointcache.Cache
		if cache != "off" {
			dir := filepath.Join(scratch, "pointcache")
			if cache == "cold-disk" {
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if pc, err = pointcache.New(pointcache.Disk, dir); err != nil {
				t.Fatal(err)
			}
		}
		before := simruntime.Usage()
		start := time.Now()
		_, _, ps, err := experiments.RunSuite(experiments.Registry(), experiments.SuiteOptions{Scale: experiments.Quick, Jobs: sweepJobs, Cache: pc})
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		r := benchRecord{
			Workload: "suite/quick", Layer: "suite",
			Knobs: benchKnobs{Jobs: sweepJobs, Cache: cache},
			Counters: map[string]float64{
				"hit_rate":                     pc.Stats().HitRate(),
				"plan_points":                  float64(ps.Points),
				"plan_unique":                  float64(ps.Unique),
				"plan_cross_figure_duplicates": float64(ps.CrossFigure),
			},
		}
		r.setUsage(before, wall)
		return r
	}}
}

// stencilLeg runs one one-sided stencil through the full stack.
func stencilLeg(name string, knobs benchKnobs, cfg stencil.Config, machineName string) benchLeg {
	return benchLeg{name, func(t *testing.T, _ string) benchRecord {
		m, err := machine.Get(machineName)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Machine = m
		before := simruntime.Usage()
		start := time.Now()
		if _, err := stencil.Run(cfg); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		r := benchRecord{
			Workload: "stencil/one-sided/" + machineName, Layer: "stack", Knobs: knobs,
			Ranks: cfg.PX * cfg.PY, Groups: len(simruntime.Usage().Events),
		}
		r.setUsage(before, wall)
		return r
	}}
}

// pholdLeg runs the 100K-rank prepared-closure PHOLD token storm
// (simbench.CoupledWindows): the window loop's cost without any
// transport stack.
func pholdLeg(workers int) benchLeg {
	const ranks, events = 100000, 2000000
	return benchLeg{fmt.Sprintf("phold-100k-workers%d", workers), func(t *testing.T, _ string) benchRecord {
		ce, err := simbench.NewCoupledWindows(ranks, workers, events, 1)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := ce.Run(); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		r := benchRecord{
			Workload: "phold/coupled/100k", Layer: "window", Knobs: benchKnobs{Workers: workers},
			Ranks: ranks, Groups: ce.Groups(), Windows: ce.Windows(), Dispatches: ce.Dispatches(),
			BusyWall: ce.BusyWall(wall),
		}
		r.setRate(wall, int64(ce.Executed()))
		r.setPhases(ce.PhaseWall())
		return r
	}}
}

// TestRecordBench appends one record per leg to BENCH_sim.json. Each
// leg runs in benchSamples child processes (the test binary
// re-executed on the leg's subtest) so no sample inherits another's
// heap, and the children's peak RSS is recorded with it. Simulated
// output is identical at every knob setting; only the wall-clock
// numbers move.
func TestRecordBench(t *testing.T) {
	label := os.Getenv("BENCH_RECORD")
	if label == "" {
		t.Skip("set BENCH_RECORD=<label> to append benchmark records to " + benchSimPath)
	}
	if flag.Arg(0) == benchLegArg {
		for _, leg := range benchLegs() {
			t.Run(leg.name, func(t *testing.T) {
				r := leg.run(t, flag.Arg(1))
				r.Schema, r.Label, r.Date = benchRecordSchema, label, time.Now().UTC().Format("2006-01-02")
				r.Cores, r.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
				out, err := json.Marshal(&r)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Printf("%s%s\n", benchLegPrefix, out)
			})
		}
		return
	}
	scratch := t.TempDir()
	var recs []benchRecord
	for _, leg := range benchLegs() {
		t.Run(leg.name, func(t *testing.T) {
			r := runBenchLeg(t, leg.name, scratch)
			t.Logf("%.0f ms wall [%.0f, %.0f] over %d samples, %d events, %.1f ns/event, %d windows, %d dispatches, busy/wall %.2f, peak RSS %.0f MB",
				r.WallMs, r.WallMsQ1, r.WallMsQ3, r.Samples, r.Events, r.NsPerEvent, r.Windows, r.Dispatches, r.BusyWall, r.PeakRSSMb)
			recs = append(recs, r)
		})
	}
	if t.Failed() || len(recs) == 0 {
		return
	}
	var f benchFile
	if data, err := os.ReadFile(benchSimPath); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("parse %s: %v", benchSimPath, err)
		}
	}
	f.Schema = benchFileSchema
	f.Records = append(f.Records, recs...)
	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchSimPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("appended %d records to %s", len(recs), benchSimPath)
}

// runBenchLeg runs one leg in benchSamples child processes and
// returns the median-wall sample's record, carrying the wall quartiles
// and the median peak RSS of all samples.
func runBenchLeg(t *testing.T, name, scratch string) benchRecord {
	t.Helper()
	recs := make([]benchRecord, benchSamples)
	rss := make([]float64, benchSamples)
	for i := range recs {
		recs[i] = runBenchSample(t, name, scratch)
		rss[i] = recs[i].PeakRSSMb
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].WallMs < recs[j].WallMs })
	sort.Float64s(rss)
	q := func(k int) int { return (benchSamples - 1) * k / 4 }
	r := recs[q(2)]
	r.Samples, r.WallMsQ1, r.WallMsQ3, r.PeakRSSMb = benchSamples, recs[q(1)].WallMs, recs[q(3)].WallMs, rss[q(2)]
	return r
}

// runBenchSample re-executes the test binary on one leg and returns
// the record it printed, with the child's peak RSS filled in.
func runBenchSample(t *testing.T, name, scratch string) benchRecord {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecordBench$/^"+regexp.QuoteMeta(name)+"$", benchLegArg, scratch)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("leg %s: %v\n%s", name, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if js, ok := strings.CutPrefix(line, benchLegPrefix); ok {
			var r benchRecord
			if err := json.Unmarshal([]byte(js), &r); err != nil {
				t.Fatalf("leg %s: %v", name, err)
			}
			// Linux reports Maxrss in KiB.
			r.PeakRSSMb = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
			return r
		}
	}
	t.Fatalf("leg %s printed no record:\n%s", name, out)
	return benchRecord{}
}

// TestBenchSimJSONSchema keeps BENCH_sim.json to one record shape:
// every record decodes into benchRecord with no unknown field, names
// its label, date, workload and layer, and no two records share a
// label, workload and knob setting.
func TestBenchSimJSONSchema(t *testing.T) {
	data, err := os.ReadFile(benchSimPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("%s: %v", benchSimPath, err)
	}
	if f.Schema != benchFileSchema {
		t.Errorf("%s schema %q, want %q", benchSimPath, f.Schema, benchFileSchema)
	}
	type key struct {
		label, workload string
		knobs           benchKnobs
	}
	seen := map[key]bool{}
	for i, r := range f.Records {
		if r.Schema == "" || r.Label == "" || r.Date == "" || r.Workload == "" || r.Layer == "" {
			t.Errorf("record %d lacks schema/label/date/workload/layer: %+v", i, r)
		}
		k := key{r.Label, r.Workload, r.Knobs}
		if seen[k] {
			t.Errorf("record %d duplicates label %q workload %q knobs %+v", i, r.Label, r.Workload, r.Knobs)
		}
		seen[k] = true
	}
}
