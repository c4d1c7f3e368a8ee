package cliflags

import (
	"flag"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
)

func statFile(p string) (int64, error) {
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// TestRegisterDefinesSharedSurface pins the unified flag surface:
// every multi-point command registers exactly the six shared knobs,
// every per-kernel command exactly -shards and the profile flags, with
// the same names and defaults.
func TestRegisterDefinesSharedSurface(t *testing.T) {
	kernelFlags := []string{"cpuprofile", "memprofile", "shards"}
	for _, tc := range []struct {
		name     string
		register func(fs *flag.FlagSet) *Common
		want     []string
	}{
		{"multi-point", func(fs *flag.FlagSet) *Common { return Register(fs, "test", "off") },
			[]string{"cache", "cache-dir", "cpuprofile", "jobs", "memprofile", "shards"}},
		{"per-kernel", func(fs *flag.FlagSet) *Common { return RegisterKernel(fs, "test") }, kernelFlags},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c := tc.register(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s command flags = %v, want %v", tc.name, got, tc.want)
		}
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if c.Shards != 1 {
			t.Errorf("%s: default -shards = %d, want 1", tc.name, c.Shards)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, "test", "off")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Jobs != runtime.NumCPU() {
		t.Errorf("default -jobs = %d, want NumCPU", c.Jobs)
	}
	if c.CacheMode != "off" {
		t.Errorf("default -cache = %q, want the command's historical default", c.CacheMode)
	}
}

func TestParseAndOpenCache(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := Register(fs, "test", "off")
	if err := fs.Parse([]string{"-jobs", "3", "-shards", "4", "-cache", "mem"}); err != nil {
		t.Fatal(err)
	}
	if c.Jobs != 3 || c.Shards != 4 {
		t.Fatalf("parsed Jobs=%d Shards=%d", c.Jobs, c.Shards)
	}
	cache, err := c.OpenCache()
	if err != nil {
		t.Fatal(err)
	}
	if !cache.Enabled() {
		t.Fatal("mem cache should be enabled")
	}
	c.CacheMode = "bogus"
	if _, err := c.OpenCache(); err == nil {
		t.Fatal("bogus cache mode should error")
	}
}

func TestStartProfilesNoopWithoutFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, "test", "off")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := c.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop() // must be safe with neither profile requested
}

func TestStartProfilesWritesCPUProfile(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, "test", "off")
	dir := t.TempDir()
	if err := fs.Parse([]string{"-cpuprofile", dir + "/cpu.pprof", "-memprofile", dir + "/mem.pprof"}); err != nil {
		t.Fatal(err)
	}
	stop, err := c.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{dir + "/cpu.pprof", dir + "/mem.pprof"} {
		if fi, err := statFile(p); err != nil || fi == 0 {
			t.Errorf("%s: size=%d err=%v", p, fi, err)
		}
	}
}

func TestGroupSpread(t *testing.T) {
	for _, tc := range []struct {
		events []int64
		want   string
	}{
		{nil, "groups=0"},
		{[]int64{0, 0}, "groups=2 events/group min/p50/max=0/0/0 imbalance=0.00"},
		{[]int64{7}, "groups=1 events/group min/p50/max=7/7/7 imbalance=1.00"},
		{[]int64{30, 10, 20}, "groups=3 events/group min/p50/max=10/20/30 imbalance=1.50"},
		{[]int64{4, 1, 3, 2}, "groups=4 events/group min/p50/max=1/2/4 imbalance=1.60"},
	} {
		if got := groupSpread(tc.events); got != tc.want {
			t.Errorf("groupSpread(%v) = %q, want %q", tc.events, got, tc.want)
		}
	}
}
