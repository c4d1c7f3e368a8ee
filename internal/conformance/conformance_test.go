package conformance

import (
	"flag"
	"strings"
	"testing"

	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// seedCount is raised to 500 by the CI conformance job:
//
//	go test ./internal/conformance -seeds 500
var seedCount = flag.Int("seeds", 40, "fuzzing seeds per conformance case")

// TestSweep is the main conformance suite: every kernel x transport
// cell under schedule perturbation and network fault injection must
// match its clean reference across all seeds.
func TestSweep(t *testing.T) {
	rep, err := Run(Options{Seeds: *seedCount})
	if err != nil {
		t.Fatalf("sweep failed to run: %v", err)
	}
	t.Log(rep.String())
	if !rep.Ok() {
		t.Fatalf("conformance violations:\n%s", rep.String())
	}
	if want := 24 * *seedCount; rep.Runs != want {
		t.Fatalf("ran %d cases, want %d", rep.Runs, want)
	}
}

// TestPerturbationDeterminism re-runs one seed and requires the
// perturbed outcome to be bit-identical both times: violations must
// reproduce from their seed alone.
func TestPerturbationDeterminism(t *testing.T) {
	o := Options{}.withDefaults()
	for _, kc := range allCases() {
		a, errA := runCase(kc, o.seedChaos(12345))
		b, errB := runCase(kc, o.seedChaos(12345))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s/%s: errors differ between identical seeds: %v vs %v",
				kc.kernel, kc.transport, errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("%s/%s: error text differs: %q vs %q",
					kc.kernel, kc.transport, errA, errB)
			}
			continue
		}
		if d := diff(a, b, nil); d != "" {
			t.Fatalf("%s/%s: outcome not deterministic under one seed: %s",
				kc.kernel, kc.transport, d)
		}
	}
}

// mutationCaught seeds a deliberate ordering bug (the kernel's
// ordering machinery disabled via Spec/SetDebugUnordered) and requires
// the kernel's oracle to catch it, the failing seed to shrink, and the
// shrunk script to replay the failure deterministically.
func mutationCaught(t *testing.T, kernel string) {
	t.Helper()
	o := Options{Seeds: 60, Unordered: true, Kernels: []string{kernel}}
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("mutation sweep failed to run: %v", err)
	}
	if rep.Ok() {
		t.Fatalf("deliberately seeded ordering bug escaped %d seeds", rep.Seeds)
	}
	v := rep.Violations[0]
	t.Logf("caught: %s", v.String())
	if len(v.Script) > v.TraceLen {
		t.Fatalf("shrunk script longer than recorded trace: %d > %d", len(v.Script), v.TraceLen)
	}
	if d := Replay(o, v); d == "" {
		t.Fatalf("shrunk script no longer reproduces the failure: %s", v.String())
	}
	// The same violation must reproduce identically a second time.
	rep2, err := Run(o)
	if err != nil {
		t.Fatalf("second mutation sweep failed: %v", err)
	}
	if len(rep2.Violations) != len(rep.Violations) {
		t.Fatalf("violation count not deterministic: %d vs %d",
			len(rep.Violations), len(rep2.Violations))
	}
	v2 := rep2.Violations[0]
	if v2.Seed != v.Seed || v2.Detail != v.Detail || len(v2.Script) != len(v.Script) {
		t.Fatalf("violation not deterministic:\n  %s\n  %s", v.String(), v2.String())
	}
}

// TestMutationCaught: the MPI non-overtaking resequencer disabled,
// caught by the msgorder exact-matching oracle.
func TestMutationCaught(t *testing.T) { mutationCaught(t, "msgorder") }

// TestStreamMutationCaught: stream-triggered descriptors firing
// without waiting for their stream predecessor, caught by the
// streamorder fire-log oracle.
func TestStreamMutationCaught(t *testing.T) { mutationCaught(t, "streamorder") }

// TestChannelMutationCaught: the memory channel's receive resequencer
// bypassed, caught by the chanfifo arrival-order oracle once fault
// injection reorders the wire.
func TestChannelMutationCaught(t *testing.T) { mutationCaught(t, "chanfifo") }

// TestOriginReuseCaught: a PE rewriting its payload between
// PutSignalNBI and Quiet fails the run with the origin guard's error;
// with the guard off (impossible in race builds, which force it on)
// the same run completes. It is not a sweep case, so the matrix keeps
// its 24 cells.
func TestOriginReuseCaught(t *testing.T) {
	guarded := kcase{"originreuse", Shmem, func(chaos) (outcome, error) { return originReuseRun(true) }}
	_, err := runCase(guarded, chaos{})
	if err == nil || !strings.Contains(err.Error(), runtime.ErrOriginModified.Error()) {
		t.Fatalf("rewritten origin buffer not caught: %v", err)
	}
	t.Logf("caught: %v", err)
	if runtime.OriginGuardForced {
		return
	}
	out, err := originReuseRun(false)
	if err != nil {
		t.Fatalf("unguarded run failed: %v", err)
	}
	if !strings.HasPrefix(out.fp, "slot=02") {
		t.Fatalf("unguarded landing did not copy the rewritten payload: %s", out.fp)
	}
}

// TestCleanWithoutFaults checks the schedule fuzzer alone (drops and
// spikes disabled): pure same-timestamp reordering plus jitter must
// never break any transport.
func TestCleanWithoutFaults(t *testing.T) {
	rep, err := Run(Options{Seeds: 10, DropProb: -1, SpikeProb: -1})
	if err != nil {
		t.Fatalf("sweep failed to run: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("violations without fault injection:\n%s", rep.String())
	}
}

// TestShrinkScript exercises the shrinker against a synthetic failure
// predicate: failure iff decisions 7 and 23 are both non-neutral.
func TestShrinkScript(t *testing.T) {
	script := make([]sim.PerturbDecision, 40)
	for i := range script {
		script[i] = sim.PerturbDecision{Prio: uint32(i + 1), Jitter: sim.Time(i)}
	}
	fails := func(s []sim.PerturbDecision) bool {
		return len(s) > 23 && !s[7].IsNeutral() && !s[23].IsNeutral()
	}
	got := shrinkScript(script, 10000, fails)
	if !fails(got) {
		t.Fatalf("shrunk script does not fail")
	}
	if n := activeDecisions(got); n != 2 {
		t.Fatalf("minimal script has %d active decisions, want 2", n)
	}
	if len(got) != 24 {
		t.Fatalf("neutral tail not trimmed: len=%d, want 24", len(got))
	}
}

// TestShrinkBudget confirms the shrinker respects its replay budget
// and still returns a failing script.
func TestShrinkBudget(t *testing.T) {
	script := make([]sim.PerturbDecision, 64)
	for i := range script {
		script[i] = sim.PerturbDecision{Prio: 1}
	}
	evals := 0
	fails := func(s []sim.PerturbDecision) bool {
		evals++
		return !s[63].IsNeutral()
	}
	got := shrinkScript(script, 5, fails)
	spent := evals
	if spent > 5 {
		t.Fatalf("shrinker spent %d replays, budget was 5", spent)
	}
	if !fails(got) {
		t.Fatalf("budget-limited shrink returned a passing script")
	}
}
