// Command perfbench is the repository's benchmark. It runs one
// workload of the simulator as a closed loop for a fixed time, checks
// the simulated output, and prints the end-to-end metrics; with
// --trace 1 it instead traces every workload, each in its own child
// process, and prints the per-layer metrics. Run it through run.sh,
// which builds it from the checkout:
//
//	bash perfbench/run.sh --workload stencil-df4k --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Human-readable
// lines come before it; a full record goes to the -out directory.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order a traced run covers them.
var workloadNames = []string{"suite-quick", "stencil-df4k", "hashtable-df1k"}

// newWorkload builds the named workload; the suite reads its golden
// output from the repository root.
func newWorkload(name, root string) (workload, error) {
	switch name {
	case "suite-quick":
		golden, err := os.ReadFile(filepath.Join(root, "results", "experiments-quick.txt"))
		if err != nil {
			return workload{}, fmt.Errorf("suite-quick golden: %w", err)
		}
		return suiteWorkload(name, goldenSections(string(golden)), nil)
	case "stencil-df4k":
		return stencilWorkload(name, stencilSize{Machine: "dragonfly-10k",
			Grid: 4096, PX: 64, PY: 64, Iters: 8, Shards: 2}), nil
	case "hashtable-df1k":
		return hashtableWorkload(name, hashtableSize{Machine: "dragonfly-1k",
			Ranks: 1024, Inserts: 200000, Shards: 2}), nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

//go:embed spec.json
var specJSON []byte

// benchSpec is spec.json: why each workload was chosen, what it should
// and should not stress, how it uses the seed, the exact values its
// runs must reproduce, and the metrics the program cannot supply yet.
type benchSpec struct {
	Workloads map[string]struct {
		Why           string            `json:"why"`
		Stresses      string            `json:"stresses"`
		DoesNotStress string            `json:"does_not_stress"`
		Seed          string            `json:"seed"`
		Pinned        map[string]uint64 `json:"pinned"`
	} `json:"workloads"`
	Absent map[string]string `json:"absent"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declared reads the metric names and units BENCHMARK.json declares
// for a mode ("end_to_end" or "per_layer").
func declared(root, mode string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(b[mode], &ms); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json %s: %w", mode, err)
	}
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out, nil
}

// selectDeclared keeps exactly the declared metrics, with their declared
// units, and fails when one was not measured.
func selectDeclared(root, mode string, values map[string]float64) (map[string]metric, error) {
	want, err := declared(root, mode)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(want))
	var missing []string
	for name, unit := range want {
		v, ok := values[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s metrics not measured: %s", mode, strings.Join(missing, ", "))
	}
	return out, nil
}

func envLine() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "seconds of jobs to measure")
	trace := fs.Int("trace", 0, "1 traces every workload and reports the per-layer metrics")
	root := fs.String("root", ".", "repository root")
	out := fs.String("out", "", "directory for run records (none when empty)")
	child := fs.Bool("child", false, "run one workload's traced jobs in this process (used by --trace 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, *root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	notes := spec.Workloads[w.name]
	switch {
	case *child:
		err = traceChild(w, notes.Pinned, *seed, stdout, stderr)
	case *trace == 1:
		err = traceAll(spec, *root, *out, *name, *seed, stdout, stderr)
	case *trace == 0:
		fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=0 %s\n", w.name, *seed, *seconds, envLine())
		fmt.Fprintf(stdout, "perfbench: seed use: %s\n", notes.Seed)
		err = measureRun(w, notes.Pinned, *root, *out, *seed, *seconds, stdout, stderr)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// Before each job a run times at least minLapSetups set-ups, and more
// until they took minLapSetupTime (at most maxLapSetups), so a light
// set-up still gives many samples. The set-up samples are spread
// through the run like the job samples, so a host slowdown that lasts
// a while lands on a few samples of each kind rather than on every
// set-up sample at once.
const (
	minLapSetups    = 2
	maxLapSetups    = 50
	minLapSetupTime = 100 * time.Millisecond
)

// measureRun is the untraced run: one warm-up set-up and job, then for
// `seconds` a closed loop of timed set-ups and timed jobs; every job is
// checked against the pins.
func measureRun(w workload, pins map[string]uint64, root, out string, seed int64, seconds int, stdout, stderr io.Writer) error {
	var setupS, wall, cpu, eps []float64
	attempted, failed := 0, 0
	setup := func() (time.Duration, error) {
		runtime.GC()
		start := time.Now()
		if err := w.setup(nil, seed); err != nil {
			return 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		return time.Since(start), nil
	}
	check := func(job int, o *outcome) {
		o.checkPins(pins)
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "perfbench: %s job %d: %s\n", w.name, job, p)
		}
		attempted += o.ops
		failed += o.failed
	}
	// One untimed set-up and one checked but untimed job first: they
	// grow the heap to the working set, which every later one reuses.
	if _, err := setup(); err != nil {
		return err
	}
	runtime.GC()
	o, _ := runJob(w, nil, w.shards)
	check(0, o)
	budget := time.Duration(seconds) * time.Second
	loop := time.Now()
	for {
		lap := time.Now()
		for n := 0; n < maxLapSetups && (n < minLapSetups || time.Since(lap) < minLapSetupTime); n++ {
			d, err := setup()
			if err != nil {
				return err
			}
			setupS = append(setupS, d.Seconds())
		}
		runtime.GC()
		c0, start := cpuTime(), time.Now()
		o, u := runJob(w, nil, w.shards)
		d, c := time.Since(start), cpuTime()-c0
		check(len(wall)+1, o)
		wall = append(wall, d.Seconds())
		cpu = append(cpu, c.Seconds())
		eps = append(eps, float64(u.events)/d.Seconds())
		// Stop before a lap that would end past the budget.
		if time.Since(loop)+time.Since(lap) > budget {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	values := map[string]float64{
		"wall_s": median(wall), "events_per_s": median(eps), "cpu_s": median(cpu),
		"peak_rss_mb": rss, "setup_s": median(setupS),
	}
	metrics, err := selectDeclared(root, "end_to_end", values)
	if err != nil {
		return err
	}
	for _, l := range []string{
		summaryLine("wall_s", "s", wall),
		summaryLine("events_per_s", "1/s", eps),
		summaryLine("cpu_s", "s", cpu),
		fmt.Sprintf("%-14s %.6g MB (VmHWM of this process)", "peak_rss_mb", rss),
		summaryLine("setup_s", "s", setupS),
		fmt.Sprintf("%-14s %.6g (%d of %d %ss failed)", "fail_frac", float64(failed)/float64(attempted), failed, attempted, w.opUnit),
	} {
		fmt.Fprintln(stdout, "perfbench:", l)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	if out != "" {
		rec := map[string]any{
			"workload": w.name, "seed": seed, "seconds": seconds, "trace": 0,
			"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"samples":   map[string][]float64{"wall_s": wall, "cpu_s": cpu, "events_per_s": eps, "setup_s": setupS},
			"fail_frac": float64(failed) / float64(attempted),
			"result":    res,
		}
		if err := writeRecord(out, fmt.Sprintf("%s-seed%d-trace0.json", w.name, seed), rec); err != nil {
			return err
		}
	}
	return printResult(stdout, res)
}

func printResult(stdout io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeRecord(dir, file string, rec any) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "runs", file), append(data, '\n'), 0o644)
}

// childResult is what one traced child process reports to its parent
// as its last line of standard output.
type childResult struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Metrics   map[string]float64 `json:"metrics"`
	Exact     map[string]uint64  `json:"exact"`
	// Self is each layer's self time in seconds, from the spans.
	Self  map[string]float64 `json:"self_s"`
	Spans []span             `json:"spans"`
}

// ownLayers are the metric prefixes that belong to one workload alone;
// every other per-layer metric is measured on each workload and is
// reported under the workload's name.
var ownLayers = []string{"experiments.", "plan.", "pointcache.", "sched.", "bench.", "stencil.", "hashtable."}

func qualify(workload, name string) string {
	for _, p := range ownLayers {
		if strings.HasPrefix(name, p) {
			return name
		}
	}
	return workload + "." + name
}

// traceChild runs one workload's traced jobs: the set-up once with
// spans, the job at the other shard count, and the job traced; then
// the layer probes. Both jobs are checked against the pins, so the
// exact counters must repeat at both shard counts.
func traceChild(w workload, pins map[string]uint64, seed int64, stdout, stderr io.Writer) error {
	tr := newTracer(fmt.Sprintf("%s/seed%d/pid%d", w.name, seed, os.Getpid()))
	m := map[string]float64{}
	id := tr.begin("perfbench.setup")
	err := w.setup(tr, seed)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("%s setup: %w", w.name, err)
	}
	m["machine.build_s"] = tr.total("machine.Get") + tr.total("machine.Topology.Build")
	m["runtime.world_s"] = tr.total("runtime.NewWorldSharded")
	m["comm.new_s"] = tr.total("comm.New")
	m["comm.new_heap_mb"] = tr.heapTotal("comm.New")

	res := childResult{Workload: w.name}
	check := func(label string, o *outcome) {
		o.checkPins(pins)
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "perfbench: %s %s job: %s\n", w.name, label, p)
		}
		res.Attempted += o.ops
		res.Failed += o.failed
	}

	// The job at the other shard count runs first and takes the
	// warm-up.
	other := 1
	if w.shards == 1 {
		other = 2
	}
	runtime.GC()
	c, _ := runJob(w, nil, other)
	check(fmt.Sprintf("shards=%d", other), c)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	n0 := len(tr.spans)
	start := time.Now()
	id = tr.begin("perfbench.job")
	b, u := runJob(w, tr, w.shards)
	tr.end(id)
	traced := time.Since(start)
	runtime.ReadMemStats(&ms1)
	check("traced", b)

	m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	// The tracing overhead is the traced job's wall over the same wall
	// less what its spans cost. A job records only a handful of spans,
	// so timing an untraced job instead would measure host noise.
	spans := time.Duration(len(tr.spans)-n0) * spanCost()
	m["trace.overhead"] = traced.Seconds() / (traced - spans).Seconds()
	m["sim.events"] = float64(u.events)
	m["sim.windows"] = float64(u.windows)
	if u.windows > 0 {
		m["sim.events_per_window"] = float64(u.events) / float64(u.windows)
	}
	m["sim.exec_s"] = u.exec.Seconds()
	m["sim.barrier_s"] = u.barrier.Seconds()
	m["sim.scan_s"] = u.scan.Seconds()
	if phase := u.exec + u.barrier + u.scan; phase > 0 {
		m["sim.barrier_share"] = float64(u.barrier) / float64(phase)
	}
	m["sim.busy_wall"] = u.busyDur.Seconds() / traced.Seconds()
	for k, v := range b.exact {
		switch {
		case strings.HasPrefix(k, "sim."), strings.HasSuffix(k, ".digest"):
		case strings.HasSuffix(k, ".sim_elapsed_ps"):
			m[strings.TrimSuffix(k, "_ps")+"_us"] = float64(v) / 1e6
		default:
			m[k] = float64(v)
		}
	}
	for k, v := range b.layer {
		m[k] = v
	}
	for _, k := range []string{"stencil", "hashtable"} {
		if d := tr.total(k + ".Run"); d > 0 {
			m[k+".run_s"] = d
		}
	}

	id = tr.begin("perfbench.probe")
	pm, err := w.probe(tr, seed)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("%s probe: %w", w.name, err)
	}
	for k, v := range pm {
		m[k] = v
	}
	res.Self = selfTimes(tr.spans)
	res.Metrics = make(map[string]float64, len(m))
	for k, v := range m {
		res.Metrics[qualify(w.name, k)] = v
	}
	res.Exact = b.exact
	res.Spans = tr.spans
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// traceAll is the traced run: one child process per workload, so no
// workload inherits another's heap, merged into one per-layer report.
func traceAll(spec *benchSpec, root, out, name string, seed int64, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=1 (traces %s, one process each) %s\n",
		name, seed, strings.Join(workloadNames, ", "), envLine())
	values := map[string]float64{}
	var children []childResult
	attempted, failed := 0, 0
	for _, wn := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-child", "-workload", wn, "-seed", strconv.FormatInt(seed, 10), "-root", root)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("traced %s: %w", wn, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var cr childResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr); err != nil {
			return fmt.Errorf("traced %s: %w", wn, err)
		}
		children = append(children, cr)
		attempted += cr.Attempted
		failed += cr.Failed
		for k, v := range cr.Metrics {
			values[k] = v
		}
		fmt.Fprintf(stdout, "perfbench: %s: %d of %d operations failed, peak rss %.1f MB, tracing overhead %.3fx, seed use: %s\n",
			wn, cr.Failed, cr.Attempted, cr.PeakRSSMB, cr.Metrics[wn+".trace.overhead"], spec.Workloads[wn].Seed)
		for _, l := range layersOf(cr.Self) {
			fmt.Fprintf(stdout, "perfbench: %s self time %-12s %.6f s\n", wn, l, cr.Self[l])
		}
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "perfbench: %-48s %.6g\n", k, values[k])
	}
	absent := make([]string, 0, len(spec.Absent))
	for k := range spec.Absent {
		absent = append(absent, k)
	}
	sort.Strings(absent)
	for _, k := range absent {
		fmt.Fprintf(stdout, "perfbench: %-48s absent: %s\n", k, spec.Absent[k])
	}
	metrics, err := selectDeclared(root, "per_layer", values)
	if err != nil {
		return err
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	if out != "" {
		rec := map[string]any{
			"workload": name, "seed": seed, "trace": 1,
			"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"children": children, "absent": spec.Absent, "result": res,
		}
		if err := writeRecord(out, fmt.Sprintf("%s-seed%d-trace1.json", name, seed), rec); err != nil {
			return err
		}
	}
	return printResult(stdout, res)
}
