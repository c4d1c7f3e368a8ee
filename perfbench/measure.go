package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	simrt "msgroofline/internal/runtime"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// usageDelta is the coupled-engine tally of the worlds one job ran:
// the difference of two runtime.Usage snapshots.
type usageDelta struct {
	events, windows              int64
	exec, barrier, scan, busyDur time.Duration
}

func usageSince(before simrt.UsageSummary) usageDelta {
	after := simrt.Usage()
	var d usageDelta
	for _, n := range after.Events {
		d.events += n
	}
	for _, n := range before.Events {
		d.events -= n
	}
	d.windows = int64(after.Windows - before.Windows)
	d.exec = after.ExecWall - before.ExecWall
	d.barrier = after.BarrierWall - before.BarrierWall
	d.scan = after.ScanWall - before.ScanWall
	d.busyDur = after.Busy - before.Busy
	return d
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest of p99.9, p99 and p90 (nearest
// rank) that still has at least ten samples beyond it, or ok=false
// when there are too few samples for any of them.
func tailPercentile(xs []float64) (label string, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		rank := int(math.Ceil(p.q * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return p.label, s[rank-1], true
		}
	}
	return "", 0, false
}

// summaryLine renders one metric's samples as the median, the tail
// percentile (when the sample count allows one) and the count.
func summaryLine(name, unit string, xs []float64) string {
	line := fmt.Sprintf("%-14s median %.6g %s", name, median(xs), unit)
	if label, v, ok := tailPercentile(xs); ok {
		line += fmt.Sprintf(", %s %.6g %s", label, v, unit)
	} else {
		line += ", no tail percentile (fewer than 10 samples beyond p90)"
	}
	return line + fmt.Sprintf(" (n=%d)", len(xs))
}
