// Command faultroute routes between two vertices of a percolated
// topology and prints the path and probe statistics — a one-shot CLI
// over the library.
//
// Usage examples:
//
//	faultroute -graph hypercube -n 12 -p 0.4 -src 0 -dst 4095
//	faultroute -graph mesh -d 2 -side 50 -p 0.55 -src 0 -dst 2499 -router path-follow
//	faultroute -graph doubletree -n 20 -p 0.8 -router double-tree-oracle -mode oracle
//	faultroute -graph complete -n 1000 -p 0.003 -router gnp-oracle -mode oracle
//
// With -trials N (N > 0) the command estimates the full routing
// complexity distribution of Definition 2 instead of performing one
// run: N percolation samples conditioned on {src ~ dst}, sharded
// across -workers goroutines. -psweep fans several retention
// probabilities out as concurrent estimate requests:
//
//	faultroute -graph hypercube -n 12 -trials 50
//	faultroute -graph hypercube -n 12 -trials 50 -psweep 0.3,0.4,0.5 -workers 4
//
// The -fail-* flags overlay a correlated failure model on top of bond
// percolation: each trial additionally kills an i.i.d. vertex fraction,
// a random BFS ball (a regional outage), or k uniform vertices:
//
//	faultroute -graph hypercube -n 12 -trials 50 -fail-model region -fail-radius 2 -fail-count 1
//	faultroute -graph kleinberg -side 20 -d 2 -trials 50 -fail-model nodes -fail-count 8
//
// With -backends the estimate is dispatched across a pool of faultrouted
// daemons instead of running in-process: the trial range splits into
// sub-jobs fanned over the backends and the merged distribution is
// byte-identical to the local run (see faultroute/dispatch):
//
//	faultroute -graph hypercube -n 12 -trials 5000 -backends http://a:8080,http://b:8080
//
// Output is bit-identical for every -workers value. Defaults (router,
// destination, mode, seed) are resolved by api.Normalize — the same
// normalization the faultrouted daemon applies — and estimate mode runs
// through the shared Runner API (faultroute/api + faultroute.Local), so
// the numbers printed here are decoded from exactly the canonical JSON
// a daemon would cache for the same spec.
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
	"sync"

	"faultroute"
	"faultroute/api"
	"faultroute/dispatch"
)

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag package already printed the error and usage
	default:
		fmt.Fprintln(os.Stderr, "faultroute:", err)
		os.Exit(1)
	}
}

// errUsage marks a flag-parse failure whose message the flag package has
// already printed alongside the usage text.
var errUsage = errors.New("usage")

func run(args []string) error {
	fs := flag.NewFlagSet("faultroute", flag.ContinueOnError)
	var (
		family     = fs.String("graph", "hypercube", "topology: hypercube, mesh, torus, doubletree, complete, debruijn, shuffleexchange, butterfly, cyclematching, ring, kleinberg")
		n          = fs.Int("n", 10, "size parameter (dimension, depth, or order depending on -graph)")
		d          = fs.Int("d", 2, "mesh/torus dimension (kleinberg: long-range exponent r)")
		side       = fs.Int("side", 16, "mesh/torus/kleinberg side length")
		p          = fs.Float64("p", 0.5, "edge retention probability (failure probability is 1-p)")
		seed       = fs.Uint64("seed", 1, "percolation seed (0 selects 1, the wire default)")
		src        = fs.Uint64("src", 0, "source vertex")
		dst        = fs.Int64("dst", -1, "destination vertex (-1: topology default, e.g. the antipode)")
		router     = fs.String("router", "", "router: bfs-local, greedy, path-follow, double-tree-oracle, gnp-local, gnp-oracle (default: best fit for the topology)")
		mode       = fs.String("mode", "local", "probe model: local or oracle")
		budget     = fs.Int("budget", 0, "probe budget, 0 = unlimited")
		show       = fs.Bool("show-path", false, "print the full path")
		trials     = fs.Int("trials", 0, "estimate the complexity distribution over this many conditioned samples (0 = single run)")
		tries      = fs.Int("tries", 100, "conditioning retry budget per trial (estimate mode)")
		psweep     = fs.String("psweep", "", "comma-separated p values to batch in estimate mode (default: just -p)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "total trial-level parallelism in estimate mode, spread across the -psweep values (results are identical for any value)")
		timeout    = fs.Duration("timeout", 0, "abort an estimate run after this long, e.g. 30s (0 = no limit)")
		backends   = fs.String("backends", "", "comma-separated faultrouted base URLs; estimate mode then shards its trials across the pool (results are byte-identical to in-process runs)")
		hedgeAfter = fs.Duration("hedge-after", 0, "with -backends: minimum time a sub-job runs before a straggler is speculatively re-dispatched (0 = pool default)")
		failModel  = fs.String("fail-model", "", "correlated failure model on top of percolation: iid, region, or nodes (default: none)")
		failRate   = fs.Float64("fail-rate", 0, "iid model: per-vertex death probability in [0,1]")
		failRadius = fs.Int("fail-radius", 0, "region model: BFS ball radius of each outage")
		failCount  = fs.Int("fail-count", 0, "region model: number of outage balls; nodes model: number of vertex kills")
		failSeed   = fs.Uint64("fail-seed", 0, "extra seed split into every per-trial outage draw")
		format     = fs.String("format", "table", "estimate output: table, or json (the canonical result bytes a faultrouted daemon caches, one document per p)")
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
	if *format != "table" && *format != "json" {
		return fmt.Errorf("unknown format %q (want table or json)", *format)
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
	// The graph object (for the single-run path and its Name() header)
	// comes from the same wire registry the daemon builds through.
	g, err := api.NewGraph(api.GraphSpec{Family: *family, N: *n, D: *d, Side: *side, Seed: *seed})
	if err != nil {
		return err
	}

	// Resolve defaults (router, destination, mode) and validate through
	// the one shared codec — exactly the normalization a faultrouted
	// daemon would apply to this submission.
	wire := api.EstimateSpec{
		Graph:    api.GraphSpec{Family: *family, N: *n, D: *d, Side: *side, Seed: *seed},
		P:        *p,
		Router:   *router,
		Mode:     *mode,
		Budget:   *budget,
		Src:      *src,
		Trials:   max(*trials, 1), // placeholder in single-run mode; normalization needs a positive count
		MaxTries: *tries,
		Seed:     *seed,
		Fail:     fail,
	}
	if *dst >= 0 {
		dstv := uint64(*dst)
		wire.Dst = &dstv
	}
	norm, err := api.Normalize(api.Request{Kind: api.KindEstimate, Estimate: &wire})
	if err != nil {
		return err
	}
	ne := *norm.Estimate
	source, target := faultroute.Vertex(ne.Src), faultroute.Vertex(*ne.Dst)

	if *trials > 0 {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		// In-process by default; a backend pool when -backends names one.
		// Either runner returns the same canonical bytes for a request, so
		// the printed rows cannot depend on where the trials ran.
		var r api.Runner = faultroute.NewLocal(faultroute.WithWorkers(*workers))
		reqWorkers := *workers
		if *backends != "" {
			var poolOpts []dispatch.Option
			if *hedgeAfter > 0 {
				poolOpts = append(poolOpts, dispatch.WithHedgeAfter(*hedgeAfter))
			}
			pool, err := dispatch.New(dispatch.ParseBackends(*backends), poolOpts...)
			if err != nil {
				return err
			}
			r = pool
			// The stats line goes to stderr after the rows: stdout is the
			// canonical result surface and must stay byte-identical to an
			// in-process run of the same spec.
			defer func() {
				st := pool.Stats()
				fmt.Fprintf(os.Stderr,
					"dispatch: %d sub-jobs, %d failovers, %d hedges (%d wins, %d cancels)\n",
					st.SubJobs, st.Failovers, st.Hedges, st.HedgeWins, st.HedgeCancels)
			}()
			// -workers defaults to THIS machine's core count — never
			// impose that on remote backends unless explicitly asked.
			workersSet := false
			fs.Visit(func(f *flag.Flag) {
				if f.Name == "workers" {
					workersSet = true
				}
			})
			if !workersSet {
				reqWorkers = 0 // each backend's own default
			}
		}
		return estimate(ctx, r, g.Name(), ne, *workers, reqWorkers, *psweep, *format)
	}
	if *psweep != "" {
		return fmt.Errorf("-psweep requires estimate mode: pass -trials N (N > 0)")
	}
	if *backends != "" {
		return fmt.Errorf("-backends requires estimate mode: pass -trials N (N > 0)")
	}
	if *format != "table" {
		return fmt.Errorf("-format %s requires estimate mode: pass -trials N (N > 0)", *format)
	}

	r, err := api.NewRouter(ne.Router, ne.Seed)
	if err != nil {
		return err
	}
	spec := faultroute.Spec{Graph: g, P: ne.P, Router: r, Budget: ne.Budget}
	if ne.Mode == "oracle" {
		spec.Mode = faultroute.ModeOracle
	}
	if nf := ne.Fail; nf != nil {
		spec.Fault = faultroute.Fault{Model: nf.Model, Rate: nf.Rate,
			Radius: nf.Radius, Count: nf.Count, Seed: nf.Seed}
	}

	fmt.Printf("%s  p=%v seed=%d  %s/%s  %d -> %d\n",
		g.Name(), ne.P, ne.Seed, r.Name(), spec.Mode, source, target)
	out, err := faultroute.Run(spec, source, target, ne.Seed)
	if err != nil {
		return err
	}
	switch {
	case out.Err == nil:
		fmt.Printf("path found: %d hops, %d probes (%d raw probe calls)\n",
			out.Path.Len(), out.Probes, out.Calls)
		if *show {
			strs := make([]string, len(out.Path))
			for i, v := range out.Path {
				strs[i] = fmt.Sprint(v)
			}
			fmt.Println(strings.Join(strs, " -> "))
		}
	case errors.Is(out.Err, faultroute.ErrNoPath):
		fmt.Printf("no path: endpoints disconnected (%d probes spent proving it)\n", out.Probes)
	case errors.Is(out.Err, faultroute.ErrBudget):
		fmt.Printf("budget exhausted after %d probes without finding a path\n", out.Probes)
	default:
		return out.Err
	}
	return nil
}

// estimate runs the multi-trial, multi-p estimate mode through the
// Runner API: each p becomes one api.Request executed by r (a Local, or
// a dispatch.Pool when -backends is set), with enough ps in flight
// concurrently to keep roughly -workers trial goroutines busy in total
// — each request parallelizes min(workers, trials) trials, so when
// trials < workers several ps run at once rather than leaving workers
// idle. The printed rows are decoded from the canonical result JSON —
// the same bytes a faultrouted daemon caches for the spec — and the
// whole sweep is canceled when ctx's deadline (-timeout) passes.
// Per-request randomness is split from (seed, trial), so concurrency
// never changes a number. workers drives the local concurrency math
// and the banner; reqWorkers is what each wire request carries (0 lets
// a remote backend use its own default — workers are result-neutral).
func estimate(ctx context.Context, r api.Runner, graphName string, spec api.EstimateSpec, workers, reqWorkers int, psweep, format string) error {
	ps := []float64{spec.P}
	if psweep != "" {
		ps = ps[:0]
		for _, part := range strings.Split(psweep, ",") {
			p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("bad -psweep value %q: %w", part, err)
			}
			ps = append(ps, p)
		}
	}
	if format == "table" {
		// JSON mode keeps stdout pure: exactly the canonical result
		// documents, no banner, so the bytes pin against any Runner.
		fmt.Printf("%s  seed=%d  %s/%s  %d -> %d  (%d trials per p, %d workers)\n",
			graphName, spec.Seed, spec.Router, spec.Mode, spec.Src, *spec.Dst, spec.Trials, workers)
	}
	// Cap in-flight ps so the total trial-goroutine count stays near
	// workers: ceil(workers / per-request parallelism).
	effective := workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	perReq := min(effective, spec.Trials)
	sem := make(chan struct{}, (effective+perReq-1)/perReq)
	type row struct {
		c    api.EstimateResult
		body []byte
		err  error
	}
	rows := make([]row, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := spec
			s.P = p
			res, err := r.Do(ctx, api.Request{Kind: api.KindEstimate, Estimate: &s, Workers: reqWorkers})
			if err != nil {
				rows[i].err = err
				return
			}
			rows[i].body = res.Body
			rows[i].c, rows[i].err = res.Estimate()
		}(i, p)
	}
	wg.Wait()
	for _, r := range rows {
		if r.err != nil {
			return r.err
		}
	}
	if format == "json" {
		for _, r := range rows {
			if _, err := os.Stdout.Write(r.body); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Printf("%8s  %6s  %8s  %8s  %8s  %8s  %8s  %8s\n",
		"p", "pairs", "mean", "median", "p90", "max", "censored", "rejected")
	for i, r := range rows {
		c := r.c
		fmt.Printf("%8.4f  %6d  %8.1f  %8.1f  %8.1f  %8.0f  %8d  %8d\n",
			ps[i], c.Trials, c.Mean, c.Median, c.P90, c.Max, c.Censored, c.Rejected)
	}
	return nil
}
