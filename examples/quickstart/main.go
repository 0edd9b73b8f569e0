// Quickstart: percolate a hypercube, route across it, measure the
// routing complexity — the library's three core moves in ~40 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"faultroute"
)

func main() {
	// 1. Build a topology: the 12-dimensional hypercube (4096 vertices).
	g, err := faultroute.NewHypercube(12)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Percolate it: keep each edge with probability p = 0.45 (this is
	//    n^-alpha for alpha ~ 0.32, below the routing transition at 1/2),
	//    deterministically in the seed.
	s := faultroute.Percolate(g, 0.45, 42)
	comps, err := faultroute.LabelComponents(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("giant component: %.1f%% of %d vertices\n",
		100*comps.GiantFraction(), g.Order())

	// 3. Route locally from a vertex to its antipode with the Theorem
	//    3(ii) waypoint router, counting probes.
	spec := faultroute.Spec{
		Graph:  g,
		P:      0.45,
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	out, err := faultroute.Run(spec, 0, g.Antipode(0), 42)
	if err != nil {
		log.Fatal(err)
	}
	if out.Err != nil {
		fmt.Println("pair disconnected in this sample:", out.Err)
	} else {
		fmt.Printf("routed 0 -> %d: %d hops, %d probes\n",
			g.Antipode(0), out.Path.Len(), out.Probes)
	}

	// 4. Measure the routing complexity distribution over 20 samples,
	//    conditioned on the endpoints being connected (Definition 2).
	c, err := faultroute.NewLocal(faultroute.WithWorkers(1)).Estimate(context.Background(), spec, 0, g.Antipode(0), 20, 200, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routing complexity over %d conditioned trials: median %.0f, p90 %.0f probes (|E| = %d)\n",
		c.Trials, c.Median, c.P90, 12*4096/2)
}
