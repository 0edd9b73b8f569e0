package exp

import (
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/percolation"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "Hypercube giant component appears at p ~ 1/n (Ajtai-Komlos-Szemeredi)",
		Claim: "Context for Theorem 3: the connectivity transition sits at p = (1+eps)/n (alpha = 1), far below the routing transition at p = n^{-1/2} (alpha = 1/2); between them short paths exist but cannot be found locally.",
		Run:   runE9,
	})
}

func runE9(cfg Config) (*Table, error) {
	n := cfg.qf(10, 13)
	trials := cfg.qf(5, 12)
	cs := cfg.qfFloats(
		[]float64{0.5, 1.0, 1.5, 3.0},
		[]float64{0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0, 4.0},
	)

	g, err := graph.NewHypercube(n)
	if err != nil {
		return nil, err
	}
	ps := make([]float64, len(cs))
	for i, c := range cs {
		ps[i] = c / float64(n)
	}
	statsRows, err := percolation.GiantScan(cfg.Context, g, ps, trials, cfg.Seed, cfg.Workers, cfg.Progress, nil)
	if err != nil {
		return nil, err
	}

	t := NewTable("E9",
		fmt.Sprintf("Largest component of H_%d,p at p = c/n", n),
		"giant fraction jumps from o(1) to Theta(1) around c = 1; the second component stays tiny above it",
		"c", "p", "giant frac", "second frac", "components")
	for i, row := range statsRows {
		t.AddRow(cs[i], row.P, row.GiantFraction, row.SecondFraction, row.Components)
	}
	t.AddNote("%d trials per row on 2^%d vertices; AKS 1982 predict the transition at c = 1", trials, n)
	t.AddNote("compare E1: at alpha in (1/2, 1) — i.e. p between n^-1 and n^-1/2 — the giant exists but local routing is already exponential")
	return t, nil
}
