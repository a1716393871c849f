// Command insure-endurance runs multi-day deployment campaigns: one
// battery bank and one power manager operated through a weather sequence,
// with per-day outcomes and a battery service-life projection.
//
// Usage:
//
//	insure-endurance -days 30 -workload seismic -policy insure
//	insure-endurance -days 14 -sunny 0.3 -cloudy 0.3 -peak 800
package main

import (
	"flag"
	"fmt"
	"log"

	"insure/internal/baseline"
	"insure/internal/core"
	"insure/internal/endurance"
	"insure/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insure-endurance: ")
	days := flag.Int("days", 14, "campaign length in days")
	wl := flag.String("workload", "seismic", "workload: seismic, video")
	policy := flag.String("policy", "insure", "power manager: insure, baseline, blink")
	seed := flag.Int64("seed", 2015, "weather/trace seed")
	peak := flag.Float64("peak", 1000, "per-day solar peak (W); 0 = natural")
	sunny := flag.Float64("sunny", 0.5, "long-run sunny-day fraction")
	cloudy := flag.Float64("cloudy", 0.3, "long-run cloudy-day fraction")
	verbose := flag.Bool("v", false, "print per-day outcomes")
	flag.Parse()

	mkSink := func() sim.Sink {
		if *wl == "video" {
			return sim.NewVideoSink()
		}
		return sim.NewSeismicSink()
	}
	var mgr sim.Manager
	switch *policy {
	case "insure":
		mgr = core.New(core.DefaultConfig(), 6)
	case "baseline":
		mgr = baseline.New(baseline.DefaultConfig())
	case "blink":
		mgr = baseline.NewBlink()
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	sum, err := endurance.Run(endurance.Campaign{
		Days:      *days,
		Climate:   endurance.NewClimate(*sunny, *cloudy, *seed),
		Seed:      *seed,
		PeakWatts: *peak,
		NewSink:   mkSink,
		Manager:   mgr,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *verbose {
		fmt.Printf("%4s %-7s %8s %9s %10s %8s\n", "day", "weather", "uptime", "GB done", "wear Ah/u", "mean SoC")
		for _, d := range sum.Days {
			fmt.Printf("%4d %-7s %7.1f%% %9.1f %10.2f %8.2f\n",
				d.Day+1, d.Weather, d.Result.UptimeFrac*100, d.Processed,
				float64(d.WearAh), d.MeanSoC)
		}
		fmt.Println()
	}
	fmt.Printf("%d-day campaign (%s, %s):\n", *days, *wl, mgr.Name())
	fmt.Printf("  total processed      %.0f GB\n", sum.TotalGB)
	fmt.Printf("  brownouts            %d\n", sum.TotalBrown)
	fmt.Printf("  battery wear         %.1f Ah/unit (wear-weighted)\n", float64(sum.FinalWearAh))
	fmt.Printf("  projected life       %.1f years at this duty\n", sum.ProjectedLifeYears)
}
