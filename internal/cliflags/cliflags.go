// Package cliflags unifies the flag surface of the msgroofline
// commands. Every binary registers its shared knobs here, with
// identical names, defaults and help text. The multi-point commands
// (cmd/experiments, cmd/msgroof) register all six through Register:
//
//	-jobs N            worker concurrency for multi-point commands
//	-shards N          engine shard count recorded on simulated worlds
//	-cache MODE        point-cache mode: off, mem or disk
//	-cache-dir DIR     entry directory for -cache=disk
//	-cpuprofile FILE   pprof CPU profile
//	-memprofile FILE   pprof heap profile on exit
//
// The per-kernel commands (cmd/stencil, cmd/sptrsv, cmd/hashtable) run
// one simulation, so they have no points to schedule or memoize and
// register only -shards and the two profile flags, through
// RegisterKernel. None of the knobs ever changes what a command prints
// on stdout. Stderr reporting goes through ReportSched, ReportCache
// and ReportShards so every binary summarizes host scheduling, cache
// traffic and shard use in the same format.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"msgroofline/internal/pointcache"
	simruntime "msgroofline/internal/runtime"
	"msgroofline/internal/sched"
)

// Common holds the shared flag values after parsing.
type Common struct {
	// Jobs caps worker concurrency for commands that schedule many
	// independent simulations (sweep points, experiments). Output is
	// byte-identical at any value.
	Jobs int
	// Shards sets the window worker parallelism of every simulated
	// world (0 means 1). Worlds decompose into per-node-group
	// sequential engines coupled by a conservative-lookahead window
	// protocol; -shards only caps how many groups execute a window
	// concurrently, so command output is byte-identical at any
	// -shards setting (see DESIGN.md §11).
	Shards int
	// CacheMode is the raw -cache value (off, mem or disk).
	CacheMode string
	// CacheDir is the entry directory for -cache=disk.
	CacheDir string
	// CPUProfile and MemProfile are pprof output paths ("" disables).
	CPUProfile string
	MemProfile string

	prog    string
	cpuFile *os.File
}

// Register installs the flags of a multi-point command on fs: -jobs,
// -cache and -cache-dir on top of RegisterKernel's. prog names the
// command in error and summary output; defaultCache preserves each
// command's historical cache default ("mem" for experiments, "off"
// elsewhere). Call after flag definitions specific to the command,
// before fs.Parse.
func Register(fs *flag.FlagSet, prog, defaultCache string) *Common {
	c := RegisterKernel(fs, prog)
	fs.IntVar(&c.Jobs, "jobs", runtime.NumCPU(),
		"number of independent simulations run concurrently (output is byte-identical at any value)")
	fs.StringVar(&c.CacheMode, "cache", defaultCache, "point-cache mode: off, mem or disk")
	fs.StringVar(&c.CacheDir, "cache-dir", filepath.Join(os.TempDir(), "msgroofline-pointcache"),
		"entry directory for -cache=disk")
	return c
}

// RegisterKernel installs the flags of a single-simulation command on
// fs: -shards, -cpuprofile and -memprofile. prog names the command in
// error and summary output.
func RegisterKernel(fs *flag.FlagSet, prog string) *Common {
	c := &Common{prog: prog}
	fs.IntVar(&c.Shards, "shards", 1,
		"window worker parallelism of simulated worlds (output is byte-identical at any value)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	return c
}

// StartProfiles begins the CPU profile when -cpuprofile was given.
// The returned stop function ends the CPU profile and writes the heap
// profile when -memprofile was given; defer it immediately after a
// successful call. With neither flag set it is a cheap no-op.
func (c *Common) StartProfiles() (stop func(), err error) {
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.prog, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", c.prog, err)
		}
		c.cpuFile = f
	}
	return func() {
		if c.cpuFile != nil {
			pprof.StopCPUProfile()
			c.cpuFile.Close()
			c.cpuFile = nil
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
			}
		}
	}, nil
}

// OpenCache parses -cache and opens the point cache ("off" yields a
// disabled cache that callers can still pass around safely).
func (c *Common) OpenCache() (*pointcache.Cache, error) {
	mode, err := pointcache.ParseMode(c.CacheMode)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.prog, err)
	}
	cache, err := pointcache.New(mode, c.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.prog, err)
	}
	return cache, nil
}

// ReportSched prints the shared one-line host-scheduling summary to
// stderr: "<label>: <stats>". It is wall-clock metadata and never
// part of stdout.
func (c *Common) ReportSched(label string, stats *sched.Stats) {
	if stats == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", label, stats)
}

// ReportCache prints the shared one-line cache hit-rate summary to
// stderr when caching is enabled.
func (c *Common) ReportCache(cache *pointcache.Cache) {
	if cache.Enabled() {
		fmt.Fprintf(os.Stderr, "cache (%s): %s\n", c.CacheMode, cache.Stats())
	}
}

// ReportShards prints the shared one-line shard-utilization summary
// to stderr: how many worlds ran, how many of them decomposed into
// multiple node groups, the conservative windows and group-window
// dispatches executed, the per-phase wall split of the window loops
// (group execution vs barrier deferred-op application vs window-bound
// maintenance — the engine-layer start of a Breaking-Band-style cost
// attribution), the largest window worker parallelism used, and the
// spread of executed events over node-group indices. The CI
// shard-determinism job greps this line to assert the grouped path
// really ran — a silent fallback to one sequential engine would show
// grouped=0.
func (c *Common) ReportShards(label string) {
	u := simruntime.Usage()
	if u.Worlds == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: worlds=%d grouped=%d windows=%d dispatches=%d exec=%v barrier=%v scan=%v workers<=%d %s\n",
		label, u.Worlds, u.Grouped, u.Windows, u.Dispatches,
		u.ExecWall.Round(time.Millisecond), u.BarrierWall.Round(time.Millisecond),
		u.ScanWall.Round(time.Millisecond), u.MaxWorkers, groupSpread(u.Events))
}

// groupSpread summarizes executed events by node-group index as
// "groups=N events/group min/p50/max=a/b/c imbalance=x", where
// imbalance is max over mean (1.00 is perfectly even).
func groupSpread(events []int64) string {
	if len(events) == 0 {
		return "groups=0"
	}
	s := slices.Clone(events)
	slices.Sort(s)
	var sum int64
	for _, n := range s {
		sum += n
	}
	imbalance := 0.0
	if sum > 0 {
		imbalance = float64(s[len(s)-1]) * float64(len(s)) / float64(sum)
	}
	return fmt.Sprintf("groups=%d events/group min/p50/max=%d/%d/%d imbalance=%.2f",
		len(s), s[0], s[(len(s)-1)/2], s[len(s)-1], imbalance)
}
