// Command insure-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	insure-bench -exp all          # every experiment (parallel by default)
//	insure-bench -workers 1        # the serial engine (byte-identical output)
//	insure-bench -exp fig17        # one experiment
//	insure-bench -list             # list experiment IDs
//	insure-bench -bench-json BENCH.json   # machine-readable perf suite
//	insure-bench -scaling          # plant-years/sec workers-scaling curve
//	insure-bench -scaling -gate    # same, exit 1 if median speedup < 0.7·N (N = GOMAXPROCS ≥ 2)
//	insure-bench -perf-diff BENCH.json       # time the hot-path rows and compare, exit 1 if a zero-alloc benchmark allocates
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"insure/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insure-bench: ")
	exp := flag.String("exp", "all", "experiment ID to run, or 'all'")
	list := flag.Bool("list", false, "list available experiment IDs")
	format := flag.String("format", "text", "output format: text, csv, markdown")
	workers := flag.Int("workers", 0, "worker pool size for 'all' and -bench-json; 1 = the serial engine (output is byte-identical), 0 = GOMAXPROCS")
	benchJSON := flag.String("bench-json", "", "run the performance suite and write machine-readable results to this path")
	scaling := flag.Bool("scaling", false, "measure the plant-years/sec workers-scaling curve and print it")
	gate := flag.Bool("gate", false, "with -scaling: exit non-zero when the median speedup at N workers is < 0.7*N (N = GOMAXPROCS >= 2)")
	scalingCells := flag.Int("scaling-cells", 16, "full-day campaign cells per scaling measurement")
	perfDiff := flag.String("perf-diff", "", "time the "+strings.Join(perfDiffCases, ", ")+" benchmarks and compare them with this BENCH.json; exit 1 when a benchmark it records at 0 allocs/op allocates")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *perfDiff != "" {
		n, err := runPerfDiff(*perfDiff)
		if err != nil {
			log.Fatal(err)
		}
		if n > 0 {
			os.Exit(1)
		}
		return
	}
	if *scaling {
		if err := runScaling(*scalingCells, *gate); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *workers, *scalingCells); err != nil {
			log.Fatal(err)
		}
		return
	}
	if strings.EqualFold(*exp, "all") {
		tables, err := experiments.RunAllParallel(context.Background(), *workers)
		if err != nil {
			log.Fatal(err)
		}
		for _, tbl := range tables {
			if err := tbl.RenderAs(os.Stdout, *format); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	tbl, err := experiments.Run(*exp)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.RenderAs(os.Stdout, *format); err != nil {
		log.Fatal(err)
	}
}
