package exp

import (
	"fmt"

	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/rng"
	"faultroute/internal/route"
	"faultroute/internal/runner"
	"faultroute/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Regional outages on the 2D torus: a dead submesh vs scattered kills",
		Claim: "Extension: on the torus the radius-R outage is a solid L1 diamond (the submesh case of correlated failures). Path-follow routing detours around one diamond at bounded extra cost, while the same casualty count scattered uniformly degrades routing globally — the low-dimensional analogue of E19.",
		Run:   runE20,
	})
}

func runE20(cfg Config) (*Table, error) {
	side := cfg.qf(10, 14)
	trials := cfg.qf(6, 20)
	radii := cfg.qfInts([]int{0, 1, 2}, []int{0, 1, 2, 3})
	const p = 0.75

	t := NewTable("E20",
		fmt.Sprintf("Median local probes on the %dx%d torus at p = %.2f under one radius-R outage diamond vs the same number of uniform node kills", side, side, p),
		"one diamond is detoured at bounded cost; matched scattered kills hurt at least as much",
		"radius", "killed", "region pairs", "region median", "region rej", "nodes pairs", "nodes median", "nodes rej")

	g, err := graph.NewTorus(2, side)
	if err != nil {
		return nil, err
	}
	u := graph.Vertex(0)
	// The vertex maximally distant from 0 in the wrap metric: the grid
	// center (side/2, side/2).
	v := graph.Vertex(uint64(side/2)*uint64(side) + uint64(side/2))

	for ri, radius := range radii {
		killed := sim.BallSize(g, u, radius) // vertex-transitive: 2R²+2R+1 for R < side/2
		faults := []sim.Fault{
			{Model: sim.FailRegion, Radius: radius, Count: 1, Seed: 1},
			{Model: sim.FailNodes, Count: killed, Seed: 1},
		}
		row := []interface{}{radius, killed}
		for mi, fault := range faults {
			spec := core.Spec{Graph: g, P: p, Router: route.NewPathFollow(), Fault: fault}
			seed := rng.Combine(cfg.Seed, uint64(ri)<<8|uint64(mi))
			results, err := core.EstimateRange(cfg.Context, spec, u, v, 0, trials, 400, seed, cfg.Workers, runner.Progress(cfg.Progress))
			var c core.Complexity
			if err == nil {
				c, err = core.MergeTrials(results)
			}
			if err != nil {
				return nil, fmt.Errorf("E20: radius %d model %s: %w", radius, fault.Model, err)
			}
			row = append(row, c.Trials, c.Median, c.Rejected)
		}
		t.AddRow(row...)
	}
	t.AddNote("each trial draws its outage independently (mask split from the sample seed), conditioned on u ~ v in the surviving graph")
	t.AddNote("p = 0.75 is comfortably above the 2D bond threshold 1/2, so conditioning accepts quickly away from the outage")
	return t, nil
}
