// gnp_separation measures the Section 5 locality/oracle separation on
// the random graph G(n, c/n): local routing costs Theta(n^2) probes
// (Theorem 10) while bidirectional oracle routing costs Theta(n^{3/2})
// (Theorem 11) — an exactly-sqrt(n) advantage for being allowed to probe
// edges you have not reached.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"faultroute"
)

func main() {
	const (
		c      = 3.0
		trials = 10
		seed   = 5
	)
	fmt.Printf("G(n, %.0f/n): local vs oracle probes (means over %d conditioned trials)\n\n", c, trials)
	fmt.Printf("%6s %12s %12s %10s %12s %12s\n",
		"n", "local", "oracle", "ratio", "local/n^2", "orc/n^1.5")

	lab := faultroute.NewLocal(faultroute.WithWorkers(1))
	ctx := context.Background()
	for _, n := range []int{200, 400, 800, 1600} {
		g, err := faultroute.NewComplete(n)
		if err != nil {
			log.Fatal(err)
		}
		p := c / float64(n)
		u, v := faultroute.Vertex(0), faultroute.Vertex(n-1)

		local := faultroute.Spec{
			Graph: g, P: p,
			Router: faultroute.NewGnpLocalRouter(uint64(n)),
			Mode:   faultroute.ModeLocal,
		}
		oracle := faultroute.Spec{
			Graph: g, P: p,
			Router: faultroute.NewGnpOracleRouter(uint64(n)),
			Mode:   faultroute.ModeOracle,
		}
		cl, err := lab.Estimate(ctx, local, u, v, trials, 60, seed)
		if err != nil {
			log.Fatal(err)
		}
		co, err := lab.Estimate(ctx, oracle, u, v, trials, 60, seed)
		if err != nil {
			log.Fatal(err)
		}
		nf := float64(n)
		fmt.Printf("%6d %12.0f %12.0f %10.1f %12.3f %12.3f\n",
			n, cl.Mean, co.Mean, cl.Mean/co.Mean,
			cl.Mean/(nf*nf), co.Mean/math.Pow(nf, 1.5))
	}
	fmt.Println()
	fmt.Println("reading: the two normalized columns are flat (the Theta(n^2) and Theta(n^{3/2})")
	fmt.Println("rates), and the ratio column grows like sqrt(n) — Theorems 10 and 11.")
}
