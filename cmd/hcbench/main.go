// Command hcbench regenerates the evaluation tables and figures.
//
//	hcbench                     # run every experiment at full scale
//	hcbench -experiment T2      # one experiment
//	hcbench -scale 0.2 -seed 7  # smaller, different randomness
//
// Each experiment prints an aligned table plus a note describing the
// published shape it reproduces; EXPERIMENTS.md records the comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"humancomp/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID (T1, T2, F1...A5) or 'all'")
		seed       = flag.Uint64("seed", 1, "random seed; equal seeds give identical tables")
		scale      = flag.Float64("scale", 1.0, "workload scale factor (1.0 = full experiment)")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Desc)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Scale: *scale}
	var runners []experiments.Runner
	if strings.EqualFold(*experiment, "all") {
		runners = experiments.All()
	} else {
		r, ok := experiments.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "hcbench: unknown experiment %q (try -list)\n", *experiment)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	fmt.Printf("hcbench: seed=%d scale=%.2f\n\n", *seed, *scale)
	for _, r := range runners {
		start := time.Now()
		res := r.Run(opts)
		fmt.Print(res.String())
		fmt.Printf("(%s in %s)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
