package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"

	"faultroute"
	"faultroute/api"
	"faultroute/bench"
	"faultroute/client"
	"faultroute/dispatch"
	"faultroute/internal/rng"
	"faultroute/serve"
)

// A workload is one traffic mix: how its op requests derive from the
// workload seed, how many closed-loop callers send them, and how the
// system under load boots. Op i of a run is always request(seed, i), so
// a seed fixes every input; the clock only decides how many ops run.
type workload struct {
	name string
	// why records the regime the workload exists to measure.
	why string
	// benchmarked marks the workloads BENCHMARK.json lists. The others
	// run by name, for the traced comparisons the README describes, but
	// their timings drift too far between runs on a shared 2-vCPU host to
	// hold a regression bound.
	benchmarked bool
	// callers is the closed-loop concurrency.
	callers int
	// window is the number of leading ops over which the exact counts
	// (tries, probes, fresh executions, sub-jobs) are taken. Every run
	// completes the window whatever its length, and the callers meet at
	// its end so server-side counters can be read between ops.
	window int
	// rssOps is the number of leading ops over which peak_rss_mb is
	// taken. A daemon keeps every result it computes, so the resident
	// set grows with each op; a peak over a fixed op count does not rise
	// when the system gets faster. The peak is read during the loop,
	// before any result check runs, and every run completes these ops.
	rssOps int
	// cycle is the number of distinct cells op requests rotate through;
	// set-up warms each of them once.
	cycle int
	// pinned marks workloads whose default-seed results digests.json
	// pins.
	pinned bool
	// request returns op i's request.
	request func(seed uint64, i int) api.Request
	// boot starts the system under load, runs its warm-up op and, where
	// the inputs are known up front, computes their reference results.
	boot func(ctx context.Context, w *workload, seed uint64, hc [2]*http.Client) (*system, error)
}

// system is a booted system under load.
type system struct {
	// do[0] runs an op untraced, do[1] through the tracing transport.
	do [2]func(ctx context.Context, req api.Request) (api.Result, error)
	// expected, when non-nil, returns the reference bytes of op i known
	// before the run (nil when the op has none).
	expected func(i int) []byte
	// workers is the trial worker count of an in-process Local (0 for
	// systems that compute in their daemons).
	workers int
	// counters snapshots server- and pool-side counters (nil for
	// in-process systems).
	counters func(ctx context.Context) (counters, error)
	close    func()
}

// counters is a snapshot of the counters the system keeps about itself.
type counters struct {
	scrape bench.Scrape // summed over every daemon of the target
	// pools holds the dispatch counters of the untraced and the traced
	// pool.
	pools [2]dispatch.PoolStats
}

func (c counters) sub(before counters) counters {
	out := counters{scrape: c.scrape.Sub(before.scrape)}
	for k, p := range c.pools {
		b := before.pools[k]
		out.pools[k] = dispatch.PoolStats{
			SubJobs:      p.SubJobs - b.SubJobs,
			Failovers:    p.Failovers - b.Failovers,
			Hedges:       p.Hedges - b.Hedges,
			HedgeWins:    p.HedgeWins - b.HedgeWins,
			HedgeCancels: p.HedgeCancels - b.HedgeCancels,
			PeerFills:    p.PeerFills - b.PeerFills,
		}
	}
	return out
}

// Workload parameters. The sparse cells sit where the paper's lower
// bounds live: the hypercube at p = n^-alpha with alpha = 0.76 > 1/2,
// and the mesh just above p_c = 1/2, where most samples are rejected.
// The dense cells are supercritical: conditioning accepts by crossing
// the giant cluster and routing is cheap.
const (
	opTrials = 16
	// maxTries makes a conditioning failure (an ErrConditioning op) so
	// rare on these cells that none is expected in any run.
	maxTries = 1000

	zipfCatalog = 256
	zipfSkew    = 1.1
	fleetShard  = 4
	fleetSize   = 3
	localWorker = 2
)

// Seed domains keep the spec seeds of different workloads and of the
// warm-up ops apart.
const (
	domainSparse uint64 = iota + 1
	domainDense
	domainCatalog
	domainZipf
	domainFleet
	domainWarmup
)

var workloads = []*workload{
	{
		name:    "estimate-sparse",
		why:     "rejection-heavy sparse regime (hypercube past alpha=1/2, mesh near p_c): conditioning and routing both do heavy work; where conditioning and routing changes should show",
		callers: 1, window: 32, rssOps: 1024, cycle: 2, pinned: true, benchmarked: true,
		request: func(seed uint64, i int) api.Request {
			if i%2 == 0 {
				return estimate(api.GraphSpec{Family: "hypercube", N: 10}, 0.174, "", "", specSeed(seed, domainSparse, i))
			}
			return estimate(api.GraphSpec{Family: "mesh", Side: 32}, 0.55, "", "", specSeed(seed, domainSparse, i))
		},
		boot: bootLocal,
	},
	{
		name:    "estimate-dense",
		why:     "supercritical cells and oracle routing on G(n,p): conditioning accepts through the giant cluster and routing is cheap; a conditioning change that costs dense shows here",
		callers: 1, window: 48, rssOps: 1024, cycle: 3, pinned: true,
		request: func(seed uint64, i int) api.Request {
			s := specSeed(seed, domainDense, i)
			switch i % 3 {
			case 0:
				return estimate(api.GraphSpec{Family: "hypercube", N: 12}, 0.6, "", "", s)
			case 1:
				return estimate(api.GraphSpec{Family: "mesh", Side: 64}, 0.9, "", "", s)
			default:
				return estimate(api.GraphSpec{Family: "complete", N: 512}, 0.02, "gnp-oracle", "oracle", s)
			}
		},
		boot: bootLocal,
	},
	{
		name:    "serve-zipf",
		why:     "read path: Zipf(1.1) over 256 tiny specs from 2 HTTP callers; the submit memo, coalescing and result store absorb almost every submission",
		callers: 2, window: 512, rssOps: 32768, cycle: 1,
		request: func(seed uint64, i int) api.Request {
			return catalogRequest(seed, zipfRank(seed, i))
		},
		boot: bootServe,
	},
	{
		name:    "fleet-fresh",
		why:     "write path: every op a distinct sharded estimate through a dispatch pool over 3 daemons; peer probes, double submits and store puts on every sub-job",
		callers: 2, window: 64, rssOps: 2048, cycle: 1, benchmarked: true,
		request: func(seed uint64, i int) api.Request {
			return estimate(api.GraphSpec{Family: "hypercube", N: 8}, 0.5, "", "", specSeed(seed, domainFleet, i))
		},
		boot: bootFleet,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func estimate(g api.GraphSpec, p float64, router, mode string, seed uint64) api.Request {
	return api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: g, P: p, Router: router, Mode: mode,
		Trials: opTrials, MaxTries: maxTries, Seed: seed,
	}}
}

// specSeed derives the spec seed of item i of a seed domain. Zero is
// skipped because the wire normalizes seed 0 to 1.
func specSeed(seed, domain uint64, i int) uint64 {
	s := rng.Combine(rng.Combine(seed, domain), uint64(i))
	if s == 0 {
		s = 1
	}
	return s
}

// catalogRequest is the serve-zipf catalog spec of the given rank.
func catalogRequest(seed uint64, rank int) api.Request {
	return estimate(api.GraphSpec{Family: "hypercube", N: 8}, 0.5, "", "", specSeed(seed, domainCatalog, rank))
}

// zipfCDF is the cumulative Zipf(zipfSkew) distribution over the catalog
// ranks.
var zipfCDF = func() []float64 {
	cdf := make([]float64, zipfCatalog)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), zipfSkew)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}()

// zipfRank draws op i's catalog rank.
func zipfRank(seed uint64, i int) int {
	u := rng.Float64(specSeed(seed, domainZipf, i))
	r := sort.SearchFloat64s(zipfCDF, u)
	if r >= zipfCatalog {
		r = zipfCatalog - 1
	}
	return r
}

// warmupRounds is how many ops of each cell of a workload's cycle
// set-up runs. Several rounds give setup_s enough work that a single
// descheduled op does not decide it.
const warmupRounds = 4

// warmup runs warmupRounds ops of each cell of the workload's cycle
// before the clock starts, so pools, arenas and connections fill. The
// warm-up seeds are fixed, so set-up does the same work at every
// workload seed, and they lie outside every workload's seed domain, so
// the store still starts empty for the workload's own specs.
func warmup(ctx context.Context, w *workload, do func(context.Context, api.Request) (api.Result, error)) error {
	for k := 0; k < warmupRounds*w.cycle; k++ {
		req := w.request(0, k)
		spec := *req.Estimate
		spec.Seed = specSeed(0, domainWarmup, k)
		req.Estimate = &spec
		if _, err := do(ctx, req); err != nil {
			return fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return nil
}

// referenceLocal computes reference results untimed, one trial worker
// per request: the determinism contract makes them byte-identical to
// any backend's at any worker count.
var referenceLocal = faultroute.NewLocal(faultroute.WithWorkers(1))

func bootLocal(ctx context.Context, w *workload, _ uint64, _ [2]*http.Client) (*system, error) {
	local := faultroute.NewLocal(faultroute.WithWorkers(localWorker))
	sys := &system{workers: localWorker, close: func() {}}
	sys.do[0], sys.do[1] = local.Do, local.Do
	if err := warmup(ctx, w, local.Do); err != nil {
		return nil, err
	}
	return sys, nil
}

func bootServe(ctx context.Context, w *workload, seed uint64, hc [2]*http.Client) (*system, error) {
	target, err := bench.SelfHost(serve.Options{})
	if err != nil {
		return nil, err
	}
	url := target.URLs[0]
	var cl [2]*client.Client
	for k := range cl {
		cl[k] = client.New(url, client.WithHTTPClient(hc[k]))
	}
	sys := &system{close: func() { target.Close() }}
	sys.do[0], sys.do[1] = cl[0].Do, cl[1].Do
	// The whole catalog is known up front, so its reference is part of
	// set-up.
	ref := make([][]byte, zipfCatalog)
	for r := range ref {
		res, err := referenceLocal.Do(ctx, catalogRequest(seed, r))
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("catalog reference %d: %w", r, err)
		}
		ref[r] = res.Body
	}
	sys.expected = func(i int) []byte { return ref[zipfRank(seed, i)] }
	sys.counters = func(ctx context.Context) (counters, error) {
		s, err := bench.ScrapeURL(ctx, hc[0], url)
		return counters{scrape: s}, err
	}
	if err := warmup(ctx, w, sys.do[0]); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func bootFleet(ctx context.Context, w *workload, _ uint64, hc [2]*http.Client) (*system, error) {
	target, err := bench.SelfHostFleet(fleetSize, serve.Options{}, nil)
	if err != nil {
		return nil, err
	}
	var pools [2]*dispatch.Pool
	for k := range pools {
		pools[k], err = dispatch.New(target.URLs,
			dispatch.WithShardTrials(fleetShard),
			dispatch.WithClientOptions(client.WithHTTPClient(hc[k])))
		if err != nil {
			target.Close()
			return nil, err
		}
	}
	sys := &system{close: func() { target.Close() }}
	sys.do[0], sys.do[1] = pools[0].Do, pools[1].Do
	sys.counters = func(ctx context.Context) (counters, error) {
		var c counters
		c.scrape = bench.Scrape{}
		for _, url := range target.URLs {
			s, err := bench.ScrapeURL(ctx, hc[0], url)
			if err != nil {
				return c, err
			}
			c.scrape.Merge(s)
		}
		for k, p := range pools {
			c.pools[k] = p.Stats()
		}
		return c, nil
	}
	if err := warmup(ctx, w, sys.do[0]); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}
