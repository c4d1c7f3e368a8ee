// Command hashtable runs the distributed hashtable workload with the
// CLI shape of the paper's benchmark ("./hashtable <inserts per
// process>", Appendix G), plus machine/variant flags.
//
//	hashtable -machine perlmutter-gpu -variant gpu -ranks 4 250000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"msgroofline/internal/cliflags"
	"msgroofline/internal/comm"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
)

func main() {
	mName := flag.String("machine", "perlmutter-cpu", "machine: "+machine.NameList())
	variant := flag.String("variant", "one-sided", "transport: "+comm.KindList()+" (alias: gpu = shmem)")
	ranks := flag.Int("ranks", 4, "MPI ranks / GPU PEs")
	blocks := flag.Int("blocks", 0, "GPU thread-block concurrency (gpu variant)")
	common := cliflags.RegisterKernel(flag.CommandLine, "hashtable")
	flag.Parse()

	stop, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stop()

	perProcess := 2500
	if args := flag.Args(); len(args) == 1 {
		v, err := strconv.Atoi(args[0])
		if err != nil {
			fatal(fmt.Errorf("bad insert count %q", args[0]))
		}
		perProcess = v
	} else if len(args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: hashtable [flags] [inserts-per-process]")
		os.Exit(2)
	}
	mcfg, err := machine.Get(*mName)
	if err != nil {
		fatal(err)
	}
	kind, err := comm.ParseKind(*variant)
	if err != nil {
		fatal(err)
	}
	cfg := hashtable.Config{
		Machine:      mcfg,
		Transport:    kind,
		Ranks:        *ranks,
		TotalInserts: perProcess * *ranks,
		Blocks:       *blocks,
		Shards:       common.Shards,
	}
	res, err := hashtable.Run(cfg)
	if err != nil {
		fatal(err)
	}
	defer common.ReportShards("shards")
	fmt.Printf("machine=%s variant=%s ranks=%d inserts=%d (per process %d)\n",
		mcfg.Name, *variant, res.Ranks, cfg.TotalInserts, perProcess)
	fmt.Printf("time          %v\n", res.Elapsed)
	fmt.Printf("per insert    %v\n", res.PerInsert)
	fmt.Printf("updates/s     %.0f (%.6f GUPS)\n", res.UpdatesPerSec, res.GUPS)
	fmt.Printf("collisions    %d\n", res.Collisions)
	if res.Atomics > 0 {
		fmt.Printf("remote atomics %d\n", res.Atomics)
	}
	if res.Comm.Messages > 0 {
		fmt.Printf("communication %s\n", res.Comm)
	}
	fmt.Println("verification OK (table contents checked against generated keys)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hashtable:", err)
	os.Exit(1)
}
