// Command perfbench is faultroute's benchmark: it boots the system in
// process, drives one named workload through the public entry points
// (faultroute.Local, client.Client against serve.Service, dispatch.Pool
// over a SelfHostFleet) for a fixed time, checks every result byte, and
// prints its metrics.
//
//	perfbench --workload estimate-sparse --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) reports the per-layer metrics: it alternates traced
// and untraced ops to measure the tracing overhead, replays the trials
// of every op station by station, and writes its spans to --trace-out.
// The last line of standard output is one JSON object; the lines before
// it are a readable summary. The exit code is 0 when every result
// checked, 1 when any op failed or mismatched, and 2 when the run could
// not be made. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// gogc is the pinned GC target percentage of every run.
const gogc = 100

// setupRepeats is how many times a run boots its system; setup_s is the
// median and the last boot carries the load.
const setupRepeats = 7

type config struct {
	workload *workload
	seed     uint64
	duration time.Duration
	traced   bool
	// pinned is the workload's block digests at this seed (nil: none).
	pinned   []string
	traceOut string
	env      map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists
// them.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"trials_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists
// them. A metric of a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"percolation.sample_us_per_try", "us"},
	{"percolation.connected_us_per_try", "us"},
	{"percolation.connected_share", "frac"},
	{"core.run_us_per_trial", "us"},
	{"core.run_share", "frac"},
	{"core.tries_per_trial", "count"},
	{"core.accept_ratio", "frac"},
	{"probe.probes_per_trial", "count"},
	{"probe.calls_per_probe", "count"},
	{"core.merge_us_per_op", "us"},
	{"api.compile_us_per_op", "us"},
	{"runner.parallel_efficiency", "frac"},
	{"runtime.alloc_bytes_per_trial", "B"},
	{"runtime.allocs_per_trial", "count"},
	{"runtime.gc_cycles", "count"},
	{"serve.submit_hit_ms_p50", "ms"},
	{"serve.submit_fresh_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.await_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.execute_ms_p50", "ms"},
	{"serve.http_reqs_per_op", "count"},
	{"serve.absorbed", "frac"},
	{"serve.fresh_per_op", "count"},
	{"cache.hit_ratio", "frac"},
	{"client.retries", "count"},
	{"dispatch.subjobs_per_op", "count"},
	{"dispatch.peer_probes_per_subjob", "count"},
	{"dispatch.peer_fill_ratio", "frac"},
	{"dispatch.submits_per_attempt", "count"},
	{"dispatch.hedges", "count"},
	{"dispatch.failovers", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.goroutines_after", "count"},
}

func main() { os.Exit(realMain()) }

func realMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: estimate-sparse, estimate-dense, serve-zipf or fleet-fresh")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every op's inputs derive from it")
	seconds := fs.Float64("seconds", 30, "how long the closed loop sends ops")
	trace := fs.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/traces/<workload>.jsonl)")
	pinPath := fs.String("pin", "", "compute the default-seed digests of the estimate workloads into this file, then exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(gogc)
	ctx := context.Background()
	if *pinPath != "" {
		if err := pin(ctx, *pinPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be non-negative and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		traceOut: *traceOut,
		env:      environment(*seed),
	}
	if cfg.traceOut == "" {
		cfg.traceOut = ".bench_build/traces/" + w.name + ".jsonl"
	}
	if *seed == defaultSeed && w.pinned {
		d, err := pinnedDigests()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		cfg.pinned = d[w.name]
	}
	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// opRecord is one op's outcome. It is kept small: the read path runs
// hundreds of thousands of ops, and the benchmark's own records must not
// weigh in peak_rss_mb.
type opRecord struct {
	latency  time.Duration
	failed   bool // the op returned an error
	mismatch bool // the op's bytes are wrong
	traced   bool
}

func (o opRecord) ok() bool { return !o.failed && !o.mismatch }

type loopResult struct {
	ops []opRecord
	// bodies holds op i's result bytes until verification, for systems
	// whose ops are not checked as they complete (nil otherwise).
	bodies   [][]byte
	firstErr error // the first error an op returned
	elapsed  time.Duration
	// window is the counter snapshot taken when the window's ops had
	// all completed and no later op had started.
	window counters
	// rss is the peak resident set, in MB, when w.rssOps ops had
	// completed.
	rss float64
}

// loop drives the closed loop: w.callers callers send ops back to back
// in index order until the duration has passed and the window and the
// rssOps ops are complete. Ops are claimed under a lock that also checks the clock, so
// the completed ops are always a prefix [0, n) of the op sequence.
func loop(ctx context.Context, w *workload, sys *system, seed uint64, d time.Duration, tr *tracer) (loopResult, error) {
	var (
		mu       sync.Mutex
		ops      []opRecord
		bodies   [][]byte
		firstErr error
		claimed  int
		done     int // ops completed
		stopped  bool
		lastEnd  time.Time
		windowWG sync.WaitGroup
		lr       loopResult
		snapErr  error
	)
	windowWG.Add(w.window)
	windowDone := make(chan struct{})
	go func() {
		windowWG.Wait()
		if sys.counters != nil {
			lr.window, snapErr = sys.counters(ctx)
		}
		close(windowDone)
	}()
	start := time.Now()
	deadline := start.Add(d)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (claimed >= w.window && claimed >= w.rssOps && !time.Now().Before(deadline)) {
			stopped = true
			return 0, false
		}
		claimed++
		return claimed - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if i >= w.window {
					<-windowDone
				}
				// Traced runs alternate whole op cycles, so the traced and
				// untraced halves see the same mix of cells.
				traced := tr != nil && (i/w.cycle)%2 == 1
				opCtx, spanID, k := ctx, 0, 0
				if traced {
					spanID, k = tr.newID(), 1
					opCtx = withOp(ctx, i, spanID)
				}
				req := w.request(seed, i)
				t := time.Now()
				res, err := sys.do[k](opCtx, req)
				end := time.Now()
				if traced {
					tr.record(spanID, 0, i, "op", t, end)
				}
				rec := opRecord{failed: err != nil, latency: end.Sub(t), traced: traced}
				if err == nil && sys.expected != nil {
					rec.mismatch = !bytes.Equal(res.Body, sys.expected(i))
				}
				mu.Lock()
				for len(ops) <= i {
					ops = append(ops, opRecord{})
					if sys.expected == nil {
						bodies = append(bodies, nil)
					}
				}
				ops[i] = rec
				if sys.expected == nil {
					bodies[i] = res.Body
				}
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("op %d: %w", i, err)
				}
				if end.After(lastEnd) {
					lastEnd = end
				}
				done++
				if done == w.rssOps {
					lr.rss = peakRSSMB()
				}
				mu.Unlock()
				if i < w.window {
					windowWG.Done()
				}
			}
		}()
	}
	wg.Wait()
	<-windowDone
	lr.ops, lr.bodies, lr.firstErr, lr.elapsed = ops, bodies, firstErr, lastEnd.Sub(start)
	return lr, snapErr
}

func run(ctx context.Context, cfg config, out io.Writer) (result, error) {
	w := cfg.workload
	var (
		tr *tracer
		tp *transport
	)
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 64
	hc := [2]*http.Client{{Transport: base}, {Transport: base}}
	if cfg.traced {
		tr = newTracer()
		tp = newTransport(base, tr)
		hc[1] = &http.Client{Transport: tp}
	}
	// Idle client connections are closed before a system shuts down:
	// a server's shutdown waits for connections that never sent a
	// request, which the transport's dial race leaves behind.
	var sys *system
	closeSys := func() {
		base.CloseIdleConnections()
		sys.close()
	}
	setups := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		if sys != nil {
			closeSys()
		}
		t := time.Now()
		s, err := w.boot(ctx, w, cfg.seed, hc)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		sys = s
	}
	defer closeSys()

	var before, after counters
	if sys.counters != nil {
		var err error
		if before, err = sys.counters(ctx); err != nil {
			return result{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	lr, err := loop(ctx, w, sys, cfg.seed, cfg.duration, tr)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms1)
	goroutines := runtime.NumGoroutine()
	if sys.counters != nil {
		if after, err = sys.counters(ctx); err != nil {
			return result{}, err
		}
	}
	ops := lr.ops

	// Verification marks every op whose bytes are wrong: pinned digests
	// first, then the replay (traced) or an untimed reference (untraced)
	// for every op they do not cover.
	rest := checkPinned(ops, lr.bodies, cfg.pinned)
	var st, win stations
	if cfg.traced {
		st, win, err = replayAll(w, cfg.seed, sys, ops, lr.bodies, tr)
	} else if sys.expected == nil {
		err = checkAgainstReference(ctx, w, cfg.seed, ops, lr.bodies, rest)
	}
	if err != nil {
		return result{}, err
	}
	failed := 0
	for _, o := range ops {
		if !o.ok() {
			failed++
		}
	}

	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "# perfbench %s seed %d (%s run, %d ops in %.3fs)\n", w.name, cfg.seed, mode, len(ops), lr.elapsed.Seconds())
	fmt.Fprintf(out, "# why: %s\n", w.why)
	env, _ := json.Marshal(cfg.env)
	fmt.Fprintf(out, "# env: %s\n", env)

	e2e, lat := endToEndMetrics(ops, lr.elapsed, setups, lr.rss)
	fmt.Fprintf(out, "# end-to-end (%s):\n", mode)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "#   %-22s %14.4f %s\n", d.name, e2e[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "#   %-22s %14.4f frac (%d of %d ops)\n", "failed_frac", float64(failed)/float64(max(len(ops), 1)), failed, len(ops))
	if lr.firstErr != nil {
		fmt.Fprintf(out, "#   first error: %v\n", lr.firstErr)
	}
	// p99 is printed but not bounded: on a shared host its value follows
	// how often the hypervisor deschedules a worker mid-op, not the program.
	beyond := len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	fmt.Fprintf(out, "#   latency_p99_ms %.4f ms; latency samples %d, %d beyond p99, %d beyond p90\n",
		quantile(lat, 0.99), len(lat), beyond, len(lat)-int(math.Ceil(0.9*float64(len(lat)))))
	for c := 0; c < w.cycle && w.cycle > 1; c++ {
		var sum time.Duration
		n := 0
		for i := c; i < len(ops); i += w.cycle {
			sum += ops[i].latency
			n++
		}
		fmt.Fprintf(out, "#   cell %d of the op cycle: %d ops, mean latency %.4f ms\n", c, n, ms(sum)/float64(max(n, 1)))
	}

	res := result{Correct: failed == 0, Attempted: len(ops), Failed: failed, Metrics: e2e}
	if cfg.traced {
		m := layerMetrics(w, sys, ops, lr, before, after, st, win, tp, tr, &ms0, &ms1, goroutines)
		res.Metrics = m
		fmt.Fprintln(out, "# per-layer:")
		for _, d := range perLayer {
			fmt.Fprintf(out, "#   %-34s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
		}
		summarizeTrace(out, tr, ops)
		if err := tr.export(cfg.traceOut, cfg.env); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "# spans written to %s\n", cfg.traceOut)
	}
	return res, nil
}

// replayAll replays the trial stations of everything the run computed:
// every op, or for serve-zipf every catalog spec the run requested (the
// daemon computes each once). Two goroutines replay, each op's trials in
// sequence, and mark the ops whose bytes the replay disputes. It returns
// the totals over all replayed ops and over those in the window.
func replayAll(w *workload, seed uint64, sys *system, ops []opRecord, bodies [][]byte, tr *tracer) (all, win stations, err error) {
	type item struct {
		op   int
		want []byte
	}
	var items []item
	seen := make(map[int]bool)
	for i, o := range ops {
		if !o.ok() {
			continue
		}
		if sys.expected == nil {
			items = append(items, item{op: i, want: bodies[i]})
			continue
		}
		r := zipfRank(seed, i)
		if !seen[r] {
			seen[r] = true
			items = append(items, item{op: i, want: sys.expected(i)})
		}
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	next := make(chan item)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				var spans *tracer
				if it.op < w.window {
					spans = tr
				}
				body, s, rerr := replay(w.request(seed, it.op), it.op, spans)
				mu.Lock()
				switch {
				case rerr != nil && err == nil:
					err = fmt.Errorf("replay of op %d: %w", it.op, rerr)
				case rerr == nil && !bytes.Equal(body, it.want):
					ops[it.op].mismatch = true
				}
				all.add(s)
				if it.op < w.window {
					win.add(s)
				}
				mu.Unlock()
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()
	return all, win, err
}

// endToEndMetrics derives the end-to-end metrics from the ops of a loop
// that ran for elapsed, the set-up times and the peak resident set.
func endToEndMetrics(ops []opRecord, elapsed time.Duration, setups []float64, rss float64) (map[string]metric, []float64) {
	lat := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.ok() {
			lat = append(lat, ms(o.latency))
		}
	}
	sort.Float64s(lat)
	jobs := div(float64(len(lat)), elapsed.Seconds())
	vals := map[string]float64{
		"jobs_per_s":     jobs,
		"trials_per_s":   jobs * opTrials,
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p90_ms": quantile(lat, 0.9),
		"setup_s":        median(setups),
		"peak_rss_mb":    rss,
	}
	m := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return m, lat
}

func layerMetrics(w *workload, sys *system, ops []opRecord, lr loopResult, before, after counters, all, win stations,
	tp *transport, tr *tracer, ms0, ms1 *runtime.MemStats, goroutines int) map[string]metric {
	tracedOps := 0
	for _, o := range ops {
		if o.traced {
			tracedOps++
		}
	}
	n := float64(len(ops))
	trials := n * opTrials
	p50 := func(name string) float64 {
		d := tr.durations(name)
		v := make([]float64, len(d))
		for i, x := range d {
			v[i] = ms(x)
		}
		sort.Float64s(v)
		return quantile(v, 0.5)
	}
	count := func(name string) float64 { return float64(len(tr.durations(name))) }
	requests, retries, fills := tp.counts()
	winDelta := lr.window.sub(before)
	total := after.sub(before)
	fresh := winDelta.scrape.Label("faultroute_jobs_submitted_total", "outcome", "fresh")
	absorbed := winDelta.scrape.Label("faultroute_jobs_submitted_total", "outcome", "coalesced") +
		winDelta.scrape.Label("faultroute_jobs_submitted_total", "outcome", "cached")
	hits := winDelta.scrape.Sum("faultroute_cache_hits_total")
	misses := winDelta.scrape.Sum("faultroute_cache_misses_total")
	traced := total.pools[1]
	probes := count(spanPeerProbe)
	vals := map[string]float64{
		"percolation.sample_us_per_try":    div(us(all.sample), float64(all.tries)),
		"percolation.connected_us_per_try": div(us(all.connected), float64(all.tries)),
		"percolation.connected_share":      div(float64(all.connected), float64(all.trialTime)),
		"core.run_us_per_trial":            div(us(all.run), float64(all.trials)),
		"core.run_share":                   div(float64(all.run), float64(all.trialTime)),
		"core.tries_per_trial":             div(float64(win.tries), float64(win.trials)),
		"core.accept_ratio":                div(float64(win.accepted), float64(win.tries)),
		"probe.probes_per_trial":           div(float64(win.probes), float64(win.trials)),
		"probe.calls_per_probe":            div(float64(all.calls), float64(all.probes)),
		"core.merge_us_per_op":             div(us(all.merge), float64(all.ops)),
		"api.compile_us_per_op":            div(us(all.compile), float64(all.ops)),
		"runner.parallel_efficiency":       div(float64(all.trialTime), float64(lr.elapsed)*float64(sys.workers)),
		"runtime.alloc_bytes_per_trial":    div(float64(ms1.TotalAlloc-ms0.TotalAlloc), trials),
		"runtime.allocs_per_trial":         div(float64(ms1.Mallocs-ms0.Mallocs), trials),
		"runtime.gc_cycles":                float64(ms1.NumGC - ms0.NumGC),
		"serve.submit_hit_ms_p50":          p50(spanSubmitHit),
		"serve.submit_fresh_ms_p50":        p50(spanSubmitFresh),
		"serve.result_ms_p50":              p50(spanResult),
		"serve.await_ms_p50":               p50(spanAwait),
		"jobs.queue_wait_ms_p50":           p50(spanQueueWait),
		"jobs.execute_ms_p50":              p50(spanExecute),
		"serve.http_reqs_per_op":           div(float64(requests), float64(tracedOps)),
		"serve.absorbed":                   div(absorbed, fresh+absorbed),
		"serve.fresh_per_op":               div(fresh, float64(w.window)),
		"cache.hit_ratio":                  div(hits, hits+misses),
		"client.retries":                   float64(retries),
		"dispatch.subjobs_per_op":          div(float64(winDelta.pools[0].SubJobs+winDelta.pools[1].SubJobs), float64(w.window)),
		"dispatch.peer_probes_per_subjob":  div(probes, float64(traced.SubJobs+traced.PeerFills)),
		"dispatch.peer_fill_ratio":         div(float64(fills), probes),
		"dispatch.submits_per_attempt":     div(count(spanSubmitFresh)+count(spanSubmitHit), float64(traced.SubJobs)),
		"dispatch.hedges":                  float64(total.pools[0].Hedges + total.pools[1].Hedges),
		"dispatch.failovers":               float64(total.pools[0].Failovers + total.pools[1].Failovers),
		"runtime.alloc_bytes_per_op":       div(float64(ms1.TotalAlloc-ms0.TotalAlloc), n),
		"runtime.goroutines_after":         float64(goroutines),
	}
	m := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

// summarizeTrace prints per-layer self time over the kept spans and the
// tracing overhead: traced ops against the untraced ops interleaved
// with them in the same run.
func summarizeTrace(out io.Writer, tr *tracer, ops []opRecord) {
	fmt.Fprintln(out, "# self time by span (kept spans):")
	for _, lt := range tr.selfTimes() {
		fmt.Fprintf(out, "#   %-24s %8d spans  total %10.3f ms  self %10.3f ms\n", lt.name, lt.count, ms(lt.total), ms(lt.self))
	}
	var lat [2][]float64
	for _, o := range ops {
		if o.ok() {
			k := 0
			if o.traced {
				k = 1
			}
			lat[k] = append(lat[k], ms(o.latency))
		}
	}
	sort.Float64s(lat[0])
	sort.Float64s(lat[1])
	u, t := quantile(lat[0], 0.5), quantile(lat[1], 0.5)
	fmt.Fprintf(out, "# tracing overhead: latency p50 traced %.4f ms (%d ops) vs untraced %.4f ms (%d ops): %+.2f%%\n",
		t, len(lat[1]), u, len(lat[0]), 100*div(t-u, u))
	if tr.dropped > 0 {
		fmt.Fprintf(out, "# %d spans beyond the %d kept were not exported\n", tr.dropped, maxSpans)
	}
}

// quantile interpolates linearly between the order statistics of the
// sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// environment stamps a run with what its numbers depend on.
func environment(seed uint64) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"numcpu":     strconv.Itoa(runtime.NumCPU()),
		"gogc":       strconv.Itoa(gogc),
		"cpu":        "unknown",
		"commit":     "unknown",
		"seed":       strconv.FormatUint(seed, 10),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env["commit_modified"] = "true"
				}
			}
		}
	}
	return env
}
