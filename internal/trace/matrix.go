package trace

import (
	"fmt"
	"sort"
	"strings"
)

// TrafficMatrix aggregates recorded events into per-(src, dst) byte
// and message counts — the communication heat map of a run, useful
// for spotting topology hotspots (e.g. Summit's X-Bus pairs). It is
// sparse: it holds one entry per pair that communicated, so its size
// follows the traffic (four neighbours per stencil rank), not the
// square of the rank count.
type TrafficMatrix struct {
	Ranks int
	// Pairs holds one entry per pair that communicated, ordered by
	// (Src, Dst).
	Pairs []Pair
}

// Pair is one (src, dst) traffic entry.
type Pair struct {
	Src, Dst int
	Bytes    int64
	Messages int64
}

// Matrix builds the traffic matrix for `ranks` endpoints; events
// referencing out-of-range ranks are ignored.
func (r *Recorder) Matrix(ranks int) *TrafficMatrix {
	idx := make(map[[2]int]int)
	var pairs []Pair
	for _, e := range r.events {
		if e.Src < 0 || e.Src >= ranks || e.Dst < 0 || e.Dst >= ranks {
			continue
		}
		k := [2]int{e.Src, e.Dst}
		i, ok := idx[k]
		if !ok {
			i = len(pairs)
			idx[k] = i
			pairs = append(pairs, Pair{Src: e.Src, Dst: e.Dst})
		}
		pairs[i].Bytes += e.Bytes
		pairs[i].Messages++
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	return &TrafficMatrix{Ranks: ranks, Pairs: pairs}
}

// Hottest returns the top-k pairs by byte volume, descending.
func (m *TrafficMatrix) Hottest(k int) []Pair {
	all := append([]Pair(nil), m.Pairs...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		if all[i].Src != all[j].Src {
			return all[i].Src < all[j].Src
		}
		return all[i].Dst < all[j].Dst
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Imbalance is the max/mean ratio of per-pair byte volume across
// pairs that communicated at all (1 = perfectly balanced).
func (m *TrafficMatrix) Imbalance() float64 {
	var max, sum int64
	for _, p := range m.Pairs {
		sum += p.Bytes
		if p.Bytes > max {
			max = p.Bytes
		}
	}
	if len(m.Pairs) == 0 || sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(m.Pairs))
	return float64(max) / mean
}

// String renders a compact heat map (byte volumes, KiB) for small
// rank counts.
func (m *TrafficMatrix) String() string {
	show := m.Ranks
	if show > 16 {
		show = 16
	}
	cells := make([]int64, show*show)
	for _, p := range m.Pairs {
		if p.Src < show && p.Dst < show {
			cells[p.Src*show+p.Dst] = p.Bytes
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traffic matrix (%d ranks, KiB):\n", m.Ranks)
	for s := 0; s < show; s++ {
		fmt.Fprintf(&b, "%4d:", s)
		for d := 0; d < show; d++ {
			fmt.Fprintf(&b, " %6.1f", float64(cells[s*show+d])/1024)
		}
		fmt.Fprintln(&b)
	}
	if m.Ranks > show {
		fmt.Fprintf(&b, "  (truncated to %dx%d)\n", show, show)
	}
	return b.String()
}
