// mesh_supercritical demonstrates Theorem 4: on the 2-dimensional mesh,
// the waypoint-following local router costs O(n) probes between vertices
// at distance n for ANY retention probability above the percolation
// threshold p_c(2) = 1/2 — even at p = 0.55, deep in the ugly
// near-critical regime where clusters are sponge-like.
//
// It sweeps the distance at two retention probabilities and prints the
// probes-per-step ratio, which stays bounded as n grows (with a much
// larger constant near criticality).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"faultroute"
)

func main() {
	const (
		margin = 20
		trials = 15
		seed   = 7
	)
	fmt.Println("M^2: Theorem 4 — probes per unit distance stay bounded for every p > 1/2")
	fmt.Printf("%6s %6s %10s %12s %12s\n", "p", "dist", "pairs", "mean probes", "probes/dist")

	lab := faultroute.NewLocal(faultroute.WithWorkers(1))
	ctx := context.Background()
	for _, p := range []float64{0.55, 0.8} {
		for _, n := range []int{16, 32, 64} {
			g, err := faultroute.NewMesh(2, n+margin)
			if err != nil {
				log.Fatal(err)
			}
			// Endpoints n apart along the middle row.
			u, err := g.VertexAt(margin/2, (n+margin)/2)
			if err != nil {
				log.Fatal(err)
			}
			v, err := g.VertexAt(margin/2+n, (n+margin)/2)
			if err != nil {
				log.Fatal(err)
			}
			spec := faultroute.Spec{
				Graph:  g,
				P:      p,
				Router: faultroute.NewPathFollowRouter(),
				Mode:   faultroute.ModeLocal,
			}
			c, err := lab.Estimate(ctx, spec, u, v, trials, 400, seed)
			if errors.Is(err, faultroute.ErrConditioning) {
				fmt.Printf("%6.2f %6d %10s %12s %12s\n", p, n, "-", "-", "-")
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%6.2f %6d %10d %12.0f %12.2f\n",
				p, n, c.Trials, c.Mean, c.Mean/float64(n))
		}
	}
	fmt.Println()
	fmt.Println("reading: within each p the probes/dist column is flat — cost is linear in")
	fmt.Println("distance (Theorem 4); the constant grows as p approaches p_c = 1/2, which is")
	fmt.Println("the Antal-Pisztora constant diverging, not the linearity failing.")
}
