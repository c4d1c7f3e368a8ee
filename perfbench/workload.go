package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"msgroofline/internal/bench"
	"msgroofline/internal/comm"
	"msgroofline/internal/experiments"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/pointcache"
	simrt "msgroofline/internal/runtime"
	"msgroofline/internal/sched"
	"msgroofline/internal/spmat"
	"msgroofline/internal/stencil"
)

// workload is one batch job of the benchmark, run as a closed loop:
// one job, then the next.
type workload struct {
	name string
	// shards is the window worker count of the job's worlds; traced
	// runs repeat the job at the other of 1 and 2 to check that the
	// exact counters do not depend on it.
	shards int
	// opUnit names one attempted operation: a figure of the suite or
	// one kernel run.
	opUnit string
	// setup builds the job's inputs and worlds once, without running
	// any event; its wall time is the setup_s sample.
	setup func(tr *tracer, seed int64) error
	// job runs the workload once and checks its output.
	job func(tr *tracer, shards int) *outcome
	// probe times the layers the job exercises in isolation (traced
	// runs only).
	probe func(tr *tracer, seed int64) (map[string]float64, error)
}

// outcome is one job's exact results and verdict.
type outcome struct {
	ops, failed int
	// exact holds simulated values and counts that must repeat
	// exactly: they are compared with the pinned values.
	exact map[string]uint64
	// layer holds the job's host-side per-layer numbers.
	layer    map[string]float64
	problems []string
}

func newOutcome(ops int) *outcome {
	return &outcome{ops: ops, exact: map[string]uint64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if o.failed > o.ops {
		o.failed = o.ops
	}
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checkPins compares the exact values with the pinned ones; any
// difference fails every operation of the job.
func (o *outcome) checkPins(pins map[string]uint64) {
	keys := make([]string, 0, len(o.exact)+len(pins))
	for k := range o.exact {
		keys = append(keys, k)
	}
	for k := range pins {
		if _, ok := o.exact[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, measured := o.exact[k]
		want, pinned := pins[k]
		switch {
		case !pinned:
			o.fail(o.ops, "%s = %d has no pinned value", k, got)
		case !measured:
			o.fail(o.ops, "%s is pinned at %d but was not measured", k, want)
		case got != want:
			o.fail(o.ops, "%s = %d, pinned %d", k, got, want)
		}
	}
}

// runJob runs one job with the coupled-engine counters around it.
func runJob(w workload, tr *tracer, shards int) (*outcome, usageDelta) {
	before := simrt.Usage()
	o := w.job(tr, shards)
	u := usageSince(before)
	o.exact["sim.events"] = uint64(u.events)
	o.exact["sim.windows"] = uint64(u.windows)
	return o, u
}

// suiteJobs is the quick suite's experiment worker count: the default
// of `cmd/experiments -scale quick` on a 2-core host, fixed so the
// workload does not change with the host.
const suiteJobs = 2

// suiteWorkload regenerates the quick suite (the experiments with the
// given ids, nil for the whole registry) and compares every figure's
// rendered section byte for byte with the golden.
func suiteWorkload(name string, golden map[string]string, ids []string) (workload, error) {
	exps := experiments.Registry()
	if ids != nil {
		exps = exps[:0]
		for _, id := range ids {
			e, err := experiments.Get(id)
			if err != nil {
				return workload{}, err
			}
			exps = append(exps, e)
		}
	}
	job := func(tr *tracer, shards int) *outcome {
		o := newOutcome(len(exps))
		var cache *pointcache.Cache
		if err := tr.do("pointcache.New", func() (err error) {
			cache, err = pointcache.New(pointcache.Mem, "")
			return err
		}); err != nil {
			o.fail(o.ops, "pointcache: %v", err)
			return o
		}
		var outs []*experiments.Output
		var st *sched.Stats
		var ps experiments.PlanStats
		if err := tr.do("experiments.RunSuite", func() (err error) {
			outs, st, ps, err = experiments.RunSuite(exps, experiments.SuiteOptions{
				Scale: experiments.Quick, Jobs: suiteJobs, Shards: shards, Cache: cache})
			return err
		}); err != nil {
			o.fail(o.ops, "%v", err)
			return o
		}
		for i, out := range outs {
			want, ok := golden[out.ID]
			if !ok || out.Render()+"\n" != want {
				o.fail(1, "%s: rendered section differs from the golden", out.ID)
			}
			o.layer["experiments."+out.ID+".wall_s"] = st.JobWall[i].Seconds()
		}
		cs := cache.Stats()
		o.exact["plan.points"] = uint64(ps.Points)
		o.exact["plan.unique"] = uint64(ps.Unique)
		o.exact["plan.simulated"] = uint64(ps.Simulated)
		o.exact["pointcache.lookups"] = uint64(cs.Lookups)
		o.exact["pointcache.hits"] = uint64(cs.Hits)
		o.layer["pointcache.hit_ratio"] = cs.HitRate()
		o.layer["sched.busy_wall"] = st.Busy().Seconds() / st.Wall.Seconds()
		return o
	}
	machines := sweepMachines(exps)
	setup := func(tr *tracer, seed int64) error { return suiteSetup(tr, machines, seed) }
	return workload{
		name: name, shards: 1, opUnit: "figure",
		setup: setup, job: job, probe: benchProbe,
	}, nil
}

// sweepMachines lists, sorted, the machines that the experiments'
// quick-scale sweeps declare.
func sweepMachines(exps []experiments.Experiment) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range exps {
		if e.Sweeps == nil {
			continue
		}
		for _, req := range e.Sweeps(experiments.Quick) {
			if !seen[req.Machine] {
				seen[req.Machine] = true
				out = append(out, req.Machine)
			}
		}
	}
	sort.Strings(out)
	return out
}

// suiteSetup builds what the suite's sweep worlds are made of: the
// two-rank far-pair world on each machine the sweeps declare, one
// two-rank one-sided transport with a 1 MiB slot (the largest sweep
// message), and the quick-scale SpTRSV factor, generated from the
// benchmark seed. The figures themselves use the registry's fixed
// inputs, which the golden pins.
func suiteSetup(tr *tracer, machines []string, seed int64) error {
	for _, name := range machines {
		if err := buildWorld(tr, name, 2, 1); err != nil {
			return err
		}
	}
	cfg, err := machine.Get("perlmutter-cpu")
	if err != nil {
		return err
	}
	if err := newTransport(tr, comm.Spec{Machine: cfg, Kind: comm.OneSided, Ranks: 2,
		ExchangeSlots: 1, SlotBytes: 1 << 20}); err != nil {
		return err
	}
	return tr.do("spmat.Generate", func() error {
		_, err := spmat.Generate(spmat.Params{N: 2400, MeanSnode: 24, Fill: 1.0, Seed: seed})
		return err
	})
}

// buildWorld resolves a catalog machine, builds its fabric, and builds
// a world on it.
func buildWorld(tr *tracer, name string, ranks, shards int) error {
	var cfg *machine.Config
	if err := tr.do("machine.Get", func() (err error) {
		cfg, err = machine.Get(name)
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("machine.Topology.Build", func() error {
		_, _, err := cfg.Topology.Build(ranks)
		return err
	}); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return tr.do("runtime.NewWorldSharded", func() error {
		_, err := simrt.NewWorldSharded(cfg, ranks, shards)
		return err
	})
}

// newTransport builds and closes one transport, recording the live
// heap it holds on traced runs.
func newTransport(tr *tracer, spec comm.Spec) error {
	var t comm.Transport
	if err := tr.heap("comm.New", func() (err error) {
		t, err = comm.New(spec)
		return err
	}); err != nil {
		return err
	}
	return tr.do("comm.Transport.Close", func() error {
		t.Close()
		return nil
	})
}

// stencilSize is one configuration of the one-sided stencil workload.
type stencilSize struct {
	Machine                     string
	Grid, PX, PY, Iters, Shards int
}

func stencilWorkload(name string, s stencilSize) workload {
	ranks := s.PX * s.PY
	setup := func(tr *tracer, _ int64) error {
		if err := buildWorld(tr, s.Machine, ranks, s.Shards); err != nil {
			return err
		}
		cfg, err := machine.Get(s.Machine)
		if err != nil {
			return err
		}
		// The kernel's exchange geometry: four halo slots sized for
		// the longer halo side (stencil.Run).
		slot := 8 * max(s.Grid/s.PX, s.Grid/s.PY)
		return newTransport(tr, comm.Spec{Machine: cfg, Kind: comm.OneSided, Ranks: ranks,
			ExchangeSlots: 4, SlotBytes: slot, Shards: s.Shards})
	}
	job := func(tr *tracer, shards int) *outcome {
		o := newOutcome(1)
		cfg, err := machine.Get(s.Machine)
		if err != nil {
			o.fail(1, "%v", err)
			return o
		}
		var r *stencil.Result
		if err := tr.do("stencil.Run", func() (err error) {
			r, err = stencil.Run(stencil.Config{Machine: cfg, Transport: comm.OneSided,
				Grid: s.Grid, PX: s.PX, PY: s.PY, Iters: s.Iters, Shards: shards})
			return err
		}); err != nil {
			o.fail(1, "%v", err)
			return o
		}
		o.exact["stencil.digest"] = r.EventDigest
		o.exact["stencil.sim_elapsed_ps"] = uint64(r.Elapsed)
		o.exact["stencil.messages"] = uint64(r.Comm.Messages)
		o.exact["stencil.bytes"] = uint64(r.Comm.TotalBytes)
		return o
	}
	probe := func(tr *tracer, _ int64) (map[string]float64, error) {
		// Every directed neighbour pair of the PX x PY decomposition.
		var pairs [][2]int
		for r := 0; r < ranks; r++ {
			x, y := r%s.PX, r/s.PX
			if x+1 < s.PX {
				pairs = append(pairs, [2]int{r, r + 1}, [2]int{r + 1, r})
			}
			if y+1 < s.PY {
				pairs = append(pairs, [2]int{r, r + s.PX}, [2]int{r + s.PX, r})
			}
		}
		halo := int64(8 * (s.Grid / s.PX))
		return routeProbe(tr, s.Machine, ranks, pairs, halo)
	}
	return workload{name: name, shards: s.Shards, opUnit: "kernel run",
		setup: setup, job: job, probe: probe}
}

// hashtableSize is one configuration of the one-sided hashtable workload.
type hashtableSize struct {
	Machine                string
	Ranks, Inserts, Shards int
}

func hashtableWorkload(name string, s hashtableSize) workload {
	setup := func(tr *tracer, _ int64) error {
		if err := buildWorld(tr, s.Machine, s.Ranks, s.Shards); err != nil {
			return err
		}
		cfg, err := machine.Get(s.Machine)
		if err != nil {
			return err
		}
		// The kernel's per-rank atomics heap at its default load
		// factor 0.5: a next-free word, the table slots, and one
		// overflow slot per local insert plus 8 (hashtable geometry).
		per := (s.Inserts + s.Ranks - 1) / s.Ranks
		slots := (int(float64(per*s.Ranks)/0.5) + s.Ranks - 1) / s.Ranks
		heap := 8 + 8*slots + 8*(per+8)
		return newTransport(tr, comm.Spec{Machine: cfg, Kind: comm.OneSided, Ranks: s.Ranks,
			SharedBytes: heap, Shards: s.Shards})
	}
	job := func(tr *tracer, shards int) *outcome {
		o := newOutcome(1)
		cfg, err := machine.Get(s.Machine)
		if err != nil {
			o.fail(1, "%v", err)
			return o
		}
		var r *hashtable.Result
		if err := tr.do("hashtable.Run", func() (err error) {
			r, err = hashtable.Run(hashtable.Config{Machine: cfg, Transport: comm.OneSided,
				Ranks: s.Ranks, TotalInserts: s.Inserts, Shards: shards})
			return err
		}); err != nil {
			o.fail(1, "%v", err)
			return o
		}
		o.exact["hashtable.digest"] = r.EventDigest
		o.exact["hashtable.sim_elapsed_ps"] = uint64(r.Elapsed)
		o.exact["hashtable.messages"] = uint64(r.Comm.Messages)
		o.exact["hashtable.bytes"] = uint64(r.Comm.TotalBytes)
		o.exact["hashtable.atomics"] = uint64(r.Atomics)
		return o
	}
	probe := func(tr *tracer, seed int64) (map[string]float64, error) {
		// Owner-computes inserts hit uniformly random home ranks, so
		// the probe samples uniformly random (src, dst) pairs.
		rng := rand.New(rand.NewSource(seed))
		n := min(16384, s.Ranks*s.Ranks)
		pairs := make([][2]int, 0, n)
		for len(pairs) < n {
			a, b := rng.Intn(s.Ranks), rng.Intn(s.Ranks)
			if a != b {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		return routeProbe(tr, s.Machine, s.Ranks, pairs, 8)
	}
	return workload{name: name, shards: s.Shards, opUnit: "kernel run",
		setup: setup, job: job, probe: probe}
}

// routeProbe times netsim routing on a fresh fabric over the node
// pairs that the given rank pairs map to (same-node pairs never touch
// the fabric and are skipped): a cold RouteTo that resolves and caches
// each route, a warm RouteTo that hits the cache, and one Transfer of
// `bytes` per route.
func routeProbe(tr *tracer, name string, ranks int, pairs [][2]int, bytes int64) (map[string]float64, error) {
	cfg, err := machine.Get(name)
	if err != nil {
		return nil, err
	}
	var net *netsim.Network
	var places []machine.Place
	if err := tr.do("machine.Topology.Build", func() (err error) {
		net, places, err = cfg.Topology.Build(ranks)
		return err
	}); err != nil {
		return nil, err
	}
	seen := make(map[[2]string]bool)
	var nodes [][2]string
	for _, p := range pairs {
		k := [2]string{places[p[0]].Node, places[p[1]].Node}
		if k[0] != k[1] && !seen[k] {
			seen[k] = true
			nodes = append(nodes, k)
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("route probe on %s: every pair is node-local", name)
	}
	routes := make([]*netsim.Route, len(nodes))
	resolve := func() (time.Duration, error) {
		start := time.Now()
		err := tr.do("netsim.RouteTo", func() error {
			for i, k := range nodes {
				r, err := net.RouteTo(k[0], k[1])
				if err != nil {
					return err
				}
				routes[i] = r
			}
			return nil
		})
		return time.Since(start), err
	}
	cold, err := resolve()
	if err != nil {
		return nil, err
	}
	warm, err := resolve()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_ = tr.do("netsim.Route.Transfer", func() error {
		for _, r := range routes {
			r.Transfer(0, bytes, 0)
		}
		return nil
	})
	xfer := time.Since(start)
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(nodes)) }
	return map[string]float64{
		"netsim.route_cold_ns": per(cold),
		"netsim.route_warm_ns": per(warm),
		"netsim.transfer_ns":   per(xfer),
	}, nil
}

// benchProbe times bench.MeasurePoint over every point the registry's
// figures declare at quick scale, per transport.
func benchProbe(tr *tracer, _ int64) (map[string]float64, error) {
	host := map[string]time.Duration{}
	msgs := map[string]int64{}
	var points int
	var simBytes int64
	var total time.Duration
	for _, e := range experiments.Registry() {
		if e.Sweeps == nil {
			continue
		}
		for _, req := range e.Sweeps(experiments.Quick) {
			cfg, err := machine.Get(req.Machine)
			if err != nil {
				return nil, err
			}
			var pts []bench.PointSpec
			_ = tr.do("bench.ExpandPoints", func() error {
				pts = bench.ExpandPoints(cfg, req.Spec)
				return nil
			})
			for _, ps := range pts {
				start := time.Now()
				if err := tr.do("bench.MeasurePoint", func() error {
					_, err := bench.MeasurePoint(ps)
					return err
				}); err != nil {
					return nil, fmt.Errorf("%s: %w", e.ID, err)
				}
				d := time.Since(start)
				t := ps.Transport.String()
				host[t] += d
				msgs[t] += int64(ps.N)
				points++
				simBytes += ps.SimBytes()
				total += d
			}
		}
	}
	m := map[string]float64{
		"bench.points":            float64(points),
		"bench.sim_gb_per_host_s": float64(simBytes) / 1e9 / total.Seconds(),
	}
	for _, t := range bench.Transports() {
		if n := msgs[t.String()]; n > 0 {
			m["bench."+t.String()+".ns_per_msg"] = float64(host[t.String()].Nanoseconds()) / float64(n)
		}
	}
	return m, nil
}

// goldenSections splits the golden suite output into its per-figure
// sections, keyed by experiment id. A section runs from its
// "==== <id>: " header line to the next header.
func goldenSections(text string) map[string]string {
	var starts []int
	for i := 0; i < len(text); {
		if strings.HasPrefix(text[i:], "==== ") {
			starts = append(starts, i)
		}
		nl := strings.IndexByte(text[i:], '\n')
		if nl < 0 {
			break
		}
		i += nl + 1
	}
	out := make(map[string]string, len(starts))
	for k, s := range starts {
		end := len(text)
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		head := text[s+len("==== "):]
		if c := strings.IndexByte(head, ':'); c > 0 {
			out[head[:c]] = text[s:end]
		}
	}
	return out
}
