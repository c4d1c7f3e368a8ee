package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"

	"msgroofline/internal/experiments"
)

// Smoke sizes of the three workloads: the same code paths and checks
// as the benchmark's workloads, small enough for `go test`.
var (
	smokeSuiteIDs = []string{"tableI", "fig1", "fig2"}
	smokeStencil  = stencilSize{Machine: "dragonfly-10k", Grid: 512, PX: 8, PY: 8, Iters: 2, Shards: 2}
	smokeHashtab  = hashtableSize{Machine: "dragonfly-1k", Ranks: 64, Inserts: 4000, Shards: 2}
)

// smokePins are the exact values of the smoke sizes.
var smokePins = map[string]map[string]uint64{
	"suite-smoke": {
		"plan.points": 12, "plan.unique": 12, "plan.simulated": 12,
		"pointcache.lookups": 24, "pointcache.hits": 12,
		"sim.events": 9474, "sim.windows": 1489,
	},
	"stencil-smoke": {
		"stencil.digest": 1687844215351192115, "stencil.sim_elapsed_ps": 66950240,
		"stencil.messages": 448, "stencil.bytes": 229376,
		"sim.events": 5184, "sim.windows": 92,
	},
	"hashtable-smoke": {
		"hashtable.digest": 5657254873453925856, "hashtable.sim_elapsed_ps": 490040000,
		"hashtable.messages": 0, "hashtable.bytes": 0, "hashtable.atomics": 5720,
		"sim.events": 32605, "sim.windows": 2084,
	},
}

func golden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../results/experiments-quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	return goldenSections(string(data))
}

func smokeWorkloads(t *testing.T) []workload {
	t.Helper()
	suite, err := suiteWorkload("suite-smoke", golden(t), smokeSuiteIDs)
	if err != nil {
		t.Fatal(err)
	}
	return []workload{
		suite,
		stencilWorkload("stencil-smoke", smokeStencil),
		hashtableWorkload("hashtable-smoke", smokeHashtab),
	}
}

// TestSmokeWorkloads runs every smoke workload's set-up, traced and
// untraced, and its job at both shard counts: every check passes and
// the exact values repeat at shards 1 and 2.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range smokeWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			if err := w.setup(nil, 1); err != nil {
				t.Fatal(err)
			}
			tr := newTracer("test")
			if err := w.setup(tr, 1); err != nil {
				t.Fatal(err)
			}
			if tr.total("comm.New") <= 0 || tr.heapTotal("comm.New") <= 0 {
				t.Errorf("set-up spans carry no comm.New time or heap: %+v", tr.spans)
			}
			var exact []map[string]uint64
			for _, shards := range []int{1, 2} {
				o, _ := runJob(w, nil, shards)
				o.checkPins(smokePins[w.name])
				if o.failed != 0 || o.ops < 1 {
					t.Errorf("shards=%d: %d of %d failed: %v", shards, o.failed, o.ops, o.problems)
				}
				exact = append(exact, o.exact)
			}
			if !maps.Equal(exact[0], exact[1]) {
				t.Errorf("exact values differ between shards 1 and 2:\n%v\n%v", exact[0], exact[1])
			}
		})
	}
}

// TestCorruptedPinFails: a pinned digest that does not match fails
// every operation of the job, so fail_frac > 0.
func TestCorruptedPinFails(t *testing.T) {
	for _, w := range smokeWorkloads(t)[1:] {
		pins := maps.Clone(smokePins[w.name])
		key := strings.TrimSuffix(w.name, "-smoke") + ".digest"
		pins[key]++
		o, _ := runJob(w, nil, w.shards)
		o.checkPins(pins)
		if o.failed != o.ops || len(o.problems) != 1 || !strings.Contains(o.problems[0], key) {
			t.Errorf("%s: corrupted %s gave %d of %d failed: %v", w.name, key, o.failed, o.ops, o.problems)
		}
	}
}

// TestGoldenMismatchFailsFigure: a figure whose rendered section
// differs from the golden fails on its own.
func TestGoldenMismatchFailsFigure(t *testing.T) {
	g := golden(t)
	g["fig2"] += "x"
	w, err := suiteWorkload("suite-smoke", g, smokeSuiteIDs)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := runJob(w, nil, w.shards)
	o.checkPins(smokePins[w.name])
	if o.failed != 1 || o.ops != len(smokeSuiteIDs) {
		t.Errorf("got %d of %d failed: %v", o.failed, o.ops, o.problems)
	}
}

func TestGoldenSectionsCoverRegistry(t *testing.T) {
	g := golden(t)
	reg := experiments.Registry()
	if len(g) != len(reg) {
		t.Errorf("golden has %d sections, registry %d experiments", len(g), len(reg))
	}
	for _, e := range reg {
		if !strings.HasPrefix(g[e.ID], "==== "+e.ID+": ") {
			t.Errorf("no golden section for %s", e.ID)
		}
	}
}

// TestMeasureRunSmoke drives the untraced run end to end: the last
// line is the result object with every end-to-end metric.
func TestMeasureRunSmoke(t *testing.T) {
	w := hashtableWorkload("hashtable-smoke", smokeHashtab)
	var out, errs bytes.Buffer
	if err := measureRun(w, smokePins[w.name], "..", "", 1, 0, &out, &errs); err != nil {
		t.Fatal(err, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	want, err := declared("..", "end_to_end")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2 || len(res.Metrics) != len(want) {
		t.Errorf("result %+v", res)
	}
	for name, unit := range want {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value in %s", name, m, unit)
		}
	}
	if !strings.Contains(out.String(), "fail_frac") {
		t.Errorf("no fail_frac line:\n%s", out.String())
	}
}

// TestTraceChildSmoke drives one traced child: its checks pass and it
// reports the layer metrics, spans and self times.
func TestTraceChildSmoke(t *testing.T) {
	for _, w := range smokeWorkloads(t) {
		var out, errs bytes.Buffer
		if err := traceChild(w, smokePins[w.name], 1, &out, &errs); err != nil {
			t.Fatal(err, errs.String())
		}
		var cr childResult
		if err := json.Unmarshal(out.Bytes(), &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Failed != 0 || cr.Attempted < 2 {
			t.Errorf("%s: %d of %d failed: %s", w.name, cr.Failed, cr.Attempted, errs.String())
		}
		for _, k := range []string{"sim.events", "sim.windows", "go.alloc_mb", "comm.new_s", "trace.overhead"} {
			if _, ok := cr.Metrics[w.name+"."+k]; !ok {
				t.Errorf("%s: no %s", w.name, k)
			}
		}
		if o := cr.Metrics[w.name+".trace.overhead"]; o < 1 || o > 1.01 {
			t.Errorf("%s: tracing overhead %v, want a small factor above 1", w.name, o)
		}
		if cr.Self["comm"] <= 0 {
			t.Errorf("%s: no comm self time: %v", w.name, cr.Self)
		}
		if len(cr.Spans) == 0 {
			t.Errorf("%s: no spans", w.name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "perfbench.job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "comm.New", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "stencil.Run", Start: 4, End: 9},
		{ID: 4, Name: "comm.Transport.Close", Start: 11, End: 12},
	}
	got := selfTimes(spans)
	want := map[string]float64{"perfbench": 3, "comm": 3, "stencil": 5}
	if !maps.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	if _, _, ok := tailPercentile(make([]float64, 19)); ok {
		t.Error("19 samples cannot have 10 beyond p90")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if label, v, ok := tailPercentile(xs); !ok || label != "p90" || v != 90 {
		t.Errorf("100 samples: %s %v %v, want p90 90", label, v, ok)
	}
}

// TestSpecCoversWorkloads: spec.json pins and notes every workload,
// and BENCHMARK.json names the same workloads.
func TestSpecCoversWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		if i < len(b.Workloads) && b.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, b.Workloads[i].Name, name)
		}
		n, ok := spec.Workloads[name]
		if !ok || len(n.Pinned) == 0 || n.Why == "" || n.Stresses == "" || n.DoesNotStress == "" || n.Seed == "" {
			t.Errorf("spec.json lacks notes or pins for %s", name)
		}
		if _, ok := n.Pinned["sim.events"]; !ok {
			t.Errorf("spec.json does not pin sim.events for %s", name)
		}
	}
}
