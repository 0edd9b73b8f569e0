// hypercube_phase walks the headline result of the paper end to end:
// on H_{n,p} with p = n^-alpha, local routing is cheap below alpha = 1/2
// and collapses above it, even though the giant component (and short
// paths) survive all the way to alpha = 1.
//
// It prints a compact sweep over alpha for a fixed n, reporting median
// probes and how they compare to the polynomial yardstick n^3 and the
// edge count — a condensed version of experiment E1.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"

	"faultroute"
)

func main() {
	const (
		n      = 12
		trials = 12
		seed   = 2024
	)
	g, err := faultroute.NewHypercube(n)
	if err != nil {
		log.Fatal(err)
	}
	edges := float64(g.Order()) * n / 2
	fmt.Printf("H_%d: routing across the phase transition (median of %d conditioned trials per alpha)\n", n, trials)
	fmt.Printf("%7s %8s %10s %12s %10s\n", "alpha", "p", "median", "vs n^3", "vs |E|")

	spec := faultroute.Spec{
		Graph:  g,
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	lab := faultroute.NewLocal(faultroute.WithWorkers(1))
	ctx := context.Background()
	for _, alpha := range []float64{0.15, 0.30, 0.45, 0.55, 0.70, 0.85} {
		spec.P = math.Pow(n, -alpha)
		c, err := lab.Estimate(ctx, spec, 0, g.Antipode(0), trials, 400, seed)
		if errors.Is(err, faultroute.ErrConditioning) {
			// Deep in the sparse regime the antipodal pair may simply
			// never connect within the retry budget; report and move on.
			fmt.Printf("%7.2f %8.3f %10s %12s %10s\n", alpha, spec.P, "-", "(pair never connected)", "-")
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		verdict := "poly"
		if c.Median > float64(n*n*n) {
			verdict = "EXPLODED"
		}
		fmt.Printf("%7.2f %8.3f %10.0f %12s %9.1f%%\n",
			alpha, spec.P, c.Median, verdict, 100*c.Median/edges)
	}
	fmt.Println()
	fmt.Println("reading: the jump happens at alpha = 1/2 (p = n^-1/2 ~ 0.289), while the giant")
	fmt.Println("component — and hence short paths — survives down to p ~ 1/n (alpha = 1).")
}
