// Command percolate explores the component structure of percolated
// topologies: giant-component fractions across a p sweep, and empirical
// threshold location for a connectivity event.
//
// Usage examples:
//
//	percolate -graph hypercube -n 12 -sweep 0.05,0.08,0.1,0.15,0.3
//	percolate -graph mesh -side 40 -threshold
//	percolate -graph doubletree -n 12 -threshold
//	percolate -graph torus -side 30 -clusters -workers 4
//
// Sweeps and threshold searches shard their Monte-Carlo work across
// -workers goroutines; output is identical for every -workers value.
// Sweeps run through the shared Runner API (faultroute/api +
// faultroute.Local), so the rows printed here are decoded from exactly
// the canonical JSON a faultrouted daemon would cache for the same
// spec.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"faultroute"
	"faultroute/api"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/route"
)

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag package already printed the error and usage
	default:
		fmt.Fprintln(os.Stderr, "percolate:", err)
		os.Exit(1)
	}
}

// errUsage marks a flag-parse failure whose message the flag package has
// already printed alongside the usage text; returning it instead of the
// raw parse error gives bad flags a clean usage+non-zero exit without
// the message being printed twice, consistent with the other CLIs.
var errUsage = errors.New("usage")

func run(args []string) error {
	fs := flag.NewFlagSet("percolate", flag.ContinueOnError)
	var (
		family    = fs.String("graph", "hypercube", "topology: hypercube, mesh, torus, doubletree, debruijn, shuffleexchange, butterfly, cyclematching, complete, ring, kleinberg")
		n         = fs.Int("n", 10, "size parameter")
		d         = fs.Int("d", 2, "mesh/torus dimension (kleinberg: long-range exponent r)")
		side      = fs.Int("side", 24, "mesh/torus/kleinberg side length")
		sweep     = fs.String("sweep", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "comma-separated p values to scan")
		trials    = fs.Int("trials", 10, "samples per p")
		seed      = fs.Uint64("seed", 1, "base seed (0 selects 1, the wire default)")
		threshold = fs.Bool("threshold", false, "bisect for the p where a canonical connection event has probability 1/2")
		clusters  = fs.Bool("clusters", false, "report cluster statistics (theta, susceptibility) instead of giant fractions")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the Monte-Carlo sweeps (results are identical for any value)")
		timeout   = fs.Duration("timeout", 0, "abort the run after this long, e.g. 30s (0 = no limit)")

		failModel  = fs.String("fail-model", "", "correlated failure model on top of percolation: iid, region, or nodes (default: none)")
		failRate   = fs.Float64("fail-rate", 0, "iid model: per-vertex death probability in [0,1]")
		failRadius = fs.Int("fail-radius", 0, "region model: BFS ball radius of each outage")
		failCount  = fs.Int("fail-count", 0, "region model: number of outage balls; nodes model: number of vertex kills")
		failSeed   = fs.Uint64("fail-seed", 0, "extra seed split into every per-trial outage draw")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *seed == 0 {
		*seed = 1 // wire normalization's default; applied up front so every path agrees
	}
	// A FailSpec travels only when a -fail-* flag was given, so the
	// default invocation keeps the exact pre-failure-model wire bytes
	// (and content address).
	var fail *api.FailSpec
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "fail-") {
			fail = &api.FailSpec{Model: *failModel, Rate: *failRate,
				Radius: *failRadius, Count: *failCount, Seed: *failSeed}
		}
	})

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The graph object (for headers and the threshold path) comes from
	// the same wire registry the daemon builds through.
	g, err := api.NewGraph(api.GraphSpec{Family: *family, N: *n, D: *d, Side: *side, Seed: *seed})
	if err != nil {
		return err
	}

	if *threshold {
		if fail != nil {
			return fmt.Errorf("-fail-* flags apply to sweeps, not -threshold")
		}
		return findThreshold(ctx, g, *family, *trials, *seed, *workers)
	}

	ps, err := parseSweep(*sweep)
	if err != nil {
		return err
	}
	// Sweeps go through the Runner API: one percolation request, decoded
	// from the canonical result bytes.
	req := api.Request{
		Kind: api.KindPercolation,
		Percolation: &api.PercolationSpec{
			Graph:    api.GraphSpec{Family: *family, N: *n, D: *d, Side: *side, Seed: *seed},
			Ps:       ps,
			Trials:   *trials,
			Seed:     *seed,
			Clusters: *clusters,
			Fail:     fail,
		},
		Workers: *workers,
	}
	res, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		return err
	}
	if *clusters {
		out, err := res.Clusters()
		if err != nil {
			return err
		}
		fmt.Printf("%s: cluster statistics (%d trials per p)\n", g.Name(), *trials)
		fmt.Printf("%8s  %10s  %12s  %12s  %10s\n", "p", "theta", "chi", "mean size", "clusters")
		for _, r := range out.Rows {
			fmt.Printf("%8.4f  %10.4f  %12.3f  %12.3f  %10d\n",
				r.P, r.Theta, r.Chi, r.MeanCluster, r.Clusters)
		}
		return nil
	}
	out, err := res.Giant()
	if err != nil {
		return err
	}
	fmt.Printf("%s: giant component scan (%d trials per p)\n", g.Name(), *trials)
	fmt.Printf("%8s  %12s  %12s  %10s\n", "p", "giant frac", "second frac", "components")
	for _, r := range out.Rows {
		fmt.Printf("%8.4f  %12.4f  %12.4f  %10d\n", r.P, r.GiantFraction, r.SecondFraction, r.Components)
	}
	return nil
}

// findThreshold bisects for the p at which a family-appropriate
// connectivity event crosses probability 1/2: root linkage for double
// trees, corner-to-corner connection otherwise.
func findThreshold(ctx context.Context, g faultroute.Graph, family string, trials int, seed uint64, workers int) error {
	var (
		event func(p float64, s uint64) bool
		desc  string
	)
	if tt, ok := g.(*graph.DoubleTree); ok {
		event = func(p float64, s uint64) bool {
			linked, err := route.DoubleTreeRootsLinked(percolation.New(tt, p, s), 0)
			return err == nil && linked
		}
		desc = "mirrored-branch root connection (Lemma 6 predicts 1/sqrt(2) ~ 0.7071)"
	} else {
		u := faultroute.Vertex(0)
		v := faultroute.Vertex(g.Order() - 1)
		event = func(p float64, s uint64) bool {
			comps, err := percolation.Label(percolation.New(g, p, s))
			return err == nil && comps.Connected(u, v)
		}
		desc = fmt.Sprintf("connection of vertices %d and %d", u, v)
	}
	pc, err := percolation.FindThreshold(ctx, 0.01, 0.99, 0.5, 0.005, trials*20, seed, workers, nil, event)
	if err != nil {
		return err
	}
	fmt.Printf("%s: event = %s\n", g.Name(), desc)
	fmt.Printf("estimated threshold: p = %.4f\n", pc)
	return nil
}

func parseSweep(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	ps := make([]float64, 0, len(parts))
	for _, part := range parts {
		p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad sweep value %q: %w", part, err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}
