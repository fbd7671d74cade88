// Command spmt-experiments regenerates the paper's evaluation: every
// figure of HPCA'02 §4 as an ASCII table (optionally CSV), over the
// synthetic SpecInt95-like suite. The per-benchmark pipelines are built
// concurrently on one work-stealing scheduler (-parallel is the core
// budget shared by jobs, reach fan-out, and GEMM tiles); the output is
// identical to a serial run.
//
// Usage:
//
//	spmt-experiments [-figure all|fig3|fig9b|...] [-size test|small|full]
//	                 [-bench go,gcc,...] [-parallel N] [-csv]
//	                 [-store-dir DIR] [-store-bytes 4GB]
//
// With -store-dir, pipeline artifacts persist to the same on-disk
// store format spmt-server uses, so repeated local figure runs (and a
// server pointed at the same directory) warm from each other's work
// instead of re-emulating every benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/expt"
	"repro/internal/workload"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate (all, fig2, fig3, fig4, fig5a, fig5b, fig6, fig7a, fig7b, fig8, fig9a, fig9b, fig10a, fig10b, fig11, fig12)")
	sizeFlag := flag.String("size", "full", "workload size class: test, small, full")
	benchFlag := flag.String("bench", "", "comma-separated benchmark subset (default: all eight)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "scheduler core budget shared by every parallelism level (1 = serial)")
	csv := flag.Bool("csv", false, "emit CSV instead of ASCII tables")
	storeDir := flag.String("store-dir", "", "disk-tier directory shared with spmt-server (empty = memory-only)")
	storeBytes := flag.String("store-bytes", "", "disk-tier byte budget, e.g. 4GB (empty = unbounded)")
	flag.Parse()

	size, err := workload.ParseSize(*sizeFlag)
	if err != nil {
		fatal(err)
	}
	if *parallel < 1 {
		fatal(fmt.Errorf("-parallel must be >= 1, got %d", *parallel))
	}
	var names []string
	if *benchFlag != "" {
		names = strings.Split(*benchFlag, ",")
	}

	opts := engine.Options{Workers: *parallel}
	if *storeDir != "" {
		var diskBudget int64
		if *storeBytes != "" {
			var err error
			if diskBudget, err = engine.ParseBytes(*storeBytes); err != nil {
				fatal(fmt.Errorf("-store-bytes: %w", err))
			}
		}
		disk, err := engine.OpenDiskTier(*storeDir, diskBudget, codec.New())
		if err != nil {
			fatal(fmt.Errorf("-store-dir: %w", err))
		}
		opts.Disk = disk
	} else if *storeBytes != "" {
		fatal(fmt.Errorf("-store-bytes needs -store-dir"))
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building pipeline (size=%s, workers=%d)...\n", size, *parallel)
	eng := engine.New(opts)
	if *storeDir != "" {
		n := eng.WarmFromDisk()
		fmt.Fprintf(os.Stderr, "warmed %d artifacts from %s\n", n, *storeDir)
	}
	suite, err := expt.NewSuiteEngine(eng, size, names)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pipeline ready in %v\n", time.Since(start).Round(time.Millisecond))

	ids := expt.FigureIDs()
	if *figure != "all" {
		ids = strings.Split(*figure, ",")
	}
	for _, id := range ids {
		t0 := time.Now()
		tab, err := suite.Run(strings.TrimSpace(id))
		if err != nil {
			fatal(err)
		}
		if *csv {
			if err := tab.RenderCSV(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		} else if err := tab.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(t0).Round(time.Millisecond))
	}
	// Drain the async write-through queue so every artifact this run
	// computed is durable for the next run's warm-up.
	eng.Close()
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "engine: %d jobs executed, %d deduped, cache %d hits / %d misses\n",
		st.Executed, st.Deduped, st.Cache.Hits, st.Cache.Misses)
	if st.Disk != nil {
		fmt.Fprintf(os.Stderr, "store: %d disk hits, %d writes (%d async), %d artifacts / %d bytes resident\n",
			st.Disk.Hits, st.Disk.Writes, st.Disk.AsyncWrites, st.Disk.Entries, st.Disk.BytesResident)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmt-experiments:", err)
	os.Exit(1)
}
