package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func sampleRecorder() *Recorder {
	r := New()
	r.Record(Event{Src: 0, Dst: 1, Bytes: 1000})
	r.Record(Event{Src: 0, Dst: 1, Bytes: 500})
	r.Record(Event{Src: 1, Dst: 0, Bytes: 200})
	r.Record(Event{Src: 2, Dst: 3, Bytes: 4000})
	r.Record(Event{Src: 9, Dst: 0, Bytes: 99999}) // out of range for ranks=4
	return r
}

func TestMatrixAggregation(t *testing.T) {
	m := sampleRecorder().Matrix(4)
	want := []Pair{
		{Src: 0, Dst: 1, Bytes: 1500, Messages: 2},
		{Src: 1, Dst: 0, Bytes: 200, Messages: 1},
		{Src: 2, Dst: 3, Bytes: 4000, Messages: 1},
	}
	// Out-of-range events ignored; pairs ordered by (Src, Dst).
	if got := m.Pairs; !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs = %+v, want %+v", got, want)
	}
}

func TestHottestOrdering(t *testing.T) {
	m := sampleRecorder().Matrix(4)
	hot := m.Hottest(2)
	if len(hot) != 2 {
		t.Fatalf("hottest = %d entries", len(hot))
	}
	if hot[0].Src != 2 || hot[0].Dst != 3 || hot[0].Bytes != 4000 {
		t.Fatalf("hottest[0] = %+v", hot[0])
	}
	if hot[1].Bytes != 1500 {
		t.Fatalf("hottest[1] = %+v", hot[1])
	}
	// k larger than entries: all returned.
	if got := len(m.Hottest(100)); got != 3 {
		t.Fatalf("hottest(100) = %d", got)
	}
}

func TestImbalance(t *testing.T) {
	m := sampleRecorder().Matrix(4)
	// Pairs: 1500, 200, 4000 -> mean 1900, max 4000.
	want := 4000.0 / 1900.0
	if got := m.Imbalance(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
	if (New()).Matrix(4).Imbalance() != 0 {
		t.Fatal("empty matrix imbalance should be 0")
	}
}

func TestMatrixString(t *testing.T) {
	want := "traffic matrix (4 ranks, KiB):\n" +
		"   0:    0.0    1.5    0.0    0.0\n" +
		"   1:    0.2    0.0    0.0    0.0\n" +
		"   2:    0.0    0.0    0.0    3.9\n" +
		"   3:    0.0    0.0    0.0    0.0\n"
	if got := sampleRecorder().Matrix(4).String(); got != want {
		t.Fatalf("string =\n%s\nwant\n%s", got, want)
	}
}

// denseMatrix is the ranks×ranks reference the sparse matrix replaced:
// it aggregates the same log into full tables and derives Hottest,
// Imbalance and the heat map by scanning every cell.
type denseMatrix struct {
	ranks           int
	bytes, messages [][]int64
}

func newDense(r *Recorder, ranks int) *denseMatrix {
	m := &denseMatrix{ranks: ranks, bytes: make([][]int64, ranks), messages: make([][]int64, ranks)}
	for i := range m.bytes {
		m.bytes[i] = make([]int64, ranks)
		m.messages[i] = make([]int64, ranks)
	}
	for _, e := range r.Events() {
		if e.Src < 0 || e.Src >= ranks || e.Dst < 0 || e.Dst >= ranks {
			continue
		}
		m.bytes[e.Src][e.Dst] += e.Bytes
		m.messages[e.Src][e.Dst]++
	}
	return m
}

func (m *denseMatrix) hottest(k int) []Pair {
	var all []Pair
	for s := 0; s < m.ranks; s++ {
		for d := 0; d < m.ranks; d++ {
			if m.messages[s][d] > 0 {
				all = append(all, Pair{Src: s, Dst: d, Bytes: m.bytes[s][d], Messages: m.messages[s][d]})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Bytes > all[j].Bytes })
	if k < len(all) {
		all = all[:k]
	}
	return all
}

func (m *denseMatrix) imbalance() float64 {
	var max, sum int64
	n := 0
	for s := 0; s < m.ranks; s++ {
		for d := 0; d < m.ranks; d++ {
			if m.messages[s][d] == 0 {
				continue
			}
			n++
			sum += m.bytes[s][d]
			if m.bytes[s][d] > max {
				max = m.bytes[s][d]
			}
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(n))
}

func (m *denseMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic matrix (%d ranks, KiB):\n", m.ranks)
	show := min(m.ranks, 16)
	for s := 0; s < show; s++ {
		fmt.Fprintf(&b, "%4d:", s)
		for d := 0; d < show; d++ {
			fmt.Fprintf(&b, " %6.1f", float64(m.bytes[s][d])/1024)
		}
		fmt.Fprintln(&b)
	}
	if m.ranks > show {
		fmt.Fprintf(&b, "  (truncated to %dx%d)\n", show, show)
	}
	return b.String()
}

// TestMatrixMatchesDenseReference: on random event logs — repeated
// pairs, zero-byte messages, out-of-range ranks on either side, and
// rank counts past the heat map's 16×16 truncation — the sparse matrix
// reports exactly what the dense reference does.
func TestMatrixMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		ranks := 1 + rng.Intn(40)
		r := New()
		events := rng.Intn(200)
		spread := 1 + rng.Intn(ranks) // few distinct pairs in some trials
		for i := 0; i < events; i++ {
			src, dst := rng.Intn(spread), rng.Intn(spread)
			switch rng.Intn(10) {
			case 0:
				src = -1 - rng.Intn(3)
			case 1:
				dst = ranks + rng.Intn(3)
			}
			var bytes int64
			if rng.Intn(8) != 0 {
				bytes = int64(rng.Intn(1 << 14))
			}
			r.Record(Event{Src: src, Dst: dst, Bytes: bytes})
		}
		sparse, dense := r.Matrix(ranks), newDense(r, ranks)
		for _, k := range []int{0, 1, 3, 1 << 20} {
			got, want := sparse.Hottest(k), dense.hottest(k)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("trial %d (ranks %d): Hottest(%d) = %+v, want %+v", trial, ranks, k, got, want)
			}
		}
		if got, want := sparse.Imbalance(), dense.imbalance(); got != want {
			t.Fatalf("trial %d (ranks %d): Imbalance = %v, want %v", trial, ranks, got, want)
		}
		if got, want := sparse.String(), dense.String(); got != want {
			t.Fatalf("trial %d (ranks %d): String =\n%s\nwant\n%s", trial, ranks, got, want)
		}
	}
}

// TestMatrixSizeFollowsPairs: the matrix of a 4096-rank run with a
// short log costs what the log's pairs cost, not ranks² cells (a dense
// pair of int64 tables would be 256 MiB).
func TestMatrixSizeFollowsPairs(t *testing.T) {
	r := New()
	for i := 0; i < 64; i++ {
		r.Record(Event{Src: i * 64, Dst: (i*64 + 1) % 4096, Bytes: 512})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := r.Matrix(4096)
	runtime.ReadMemStats(&after)
	if len(m.Pairs) != 64 {
		t.Fatalf("pairs = %d, want 64", len(m.Pairs))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Matrix(4096) over 64 events allocated %d bytes, want < 1 MiB", alloc)
	}
}
