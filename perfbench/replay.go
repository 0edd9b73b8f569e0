package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"faultroute/api"
	"faultroute/internal/core"
	"faultroute/internal/graph"
	"faultroute/internal/percolation"
	"faultroute/internal/probe"
	"faultroute/internal/rng"
	"faultroute/internal/sim"
)

// stations totals the work and time of the trial stations over replayed
// ops.
type stations struct {
	ops, trials, tries, accepted int
	probes, calls                int64
	compile, sample, connected   time.Duration
	run, merge, trialTime        time.Duration
}

func (s *stations) add(o stations) {
	s.ops += o.ops
	s.trials += o.trials
	s.tries += o.tries
	s.accepted += o.accepted
	s.probes += o.probes
	s.calls += o.calls
	s.compile += o.compile
	s.sample += o.sample
	s.connected += o.connected
	s.run += o.run
	s.merge += o.merge
	s.trialTime += o.trialTime
}

// Replay span names: the stations of a trial, as core.EstimateTrial
// runs them.
const (
	spanReplay    = "replay.op"
	spanCompile   = "api.compile"
	spanTrial     = "core.trial"
	spanSample    = "percolation.sample"
	spanConnected = "percolation.connected"
	spanRun       = "core.run"
	spanMerge     = "core.merge"
)

// replay recomputes an unsharded estimate request one trial at a time,
// through the calls core.EstimateTrial makes — percolation.New and the
// fault mask, percolation.Connected, core.Run — and merges the trials
// with core.MergeTrials, timing each station. It returns the canonical
// result bytes, which must equal the op's: otherwise the replay would be
// measuring another program. With spans set, every station call is also
// recorded as a span under the op.
func replay(req api.Request, op int, tr *tracer) ([]byte, stations, error) {
	var st stations
	st.ops = 1
	rootID := tr.newID()
	rootStart := time.Now()
	t := time.Now()
	plan, err := api.Compile(req)
	st.compile = time.Since(t)
	tr.record(0, rootID, op, spanCompile, t, t.Add(st.compile))
	if err != nil {
		return nil, st, err
	}
	es := plan.Request.Estimate
	if es == nil || es.Shard != nil {
		return nil, st, errors.New("replay: want an unsharded estimate request")
	}
	g, err := api.NewGraph(es.Graph)
	if err != nil {
		return nil, st, err
	}
	router, err := api.NewRouter(es.Router, es.Seed)
	if err != nil {
		return nil, st, err
	}
	spec := core.Spec{Graph: g, P: es.P, Router: router, Budget: es.Budget}
	if es.Mode == "oracle" {
		spec.Mode = core.ModeOracle
	}
	if f := es.Fail; f != nil {
		spec.Fault = sim.Fault{Model: f.Model, Rate: f.Rate, Radius: f.Radius, Count: f.Count, Seed: f.Seed}
	}
	src, dst := graph.Vertex(es.Src), graph.Vertex(*es.Dst)

	results := make([]core.TrialResult, es.Trials)
	for trial := range results {
		trialID := tr.newID()
		trialStart := time.Now()
		results[trial] = replayTrial(spec, src, dst, trial, es.MaxTries, es.Seed, &st, tr, trialID, op)
		trialEnd := time.Now()
		tr.record(trialID, rootID, op, spanTrial, trialStart, trialEnd)
		st.trialTime += trialEnd.Sub(trialStart)
		if results[trial].Err != nil {
			return nil, st, results[trial].Err
		}
	}
	st.trials = len(results)

	t = time.Now()
	c, err := core.MergeTrials(results)
	st.merge = time.Since(t)
	tr.record(0, rootID, op, spanMerge, t, t.Add(st.merge))
	if err != nil {
		return nil, st, err
	}
	body, err := json.Marshal(api.EstimateResult{
		Trials: c.Trials, Censored: c.Censored, Rejected: c.Rejected,
		Mean: c.Mean, Std: c.Std, Min: c.Min, Q25: c.Q25, Median: c.Median,
		Q75: c.Q75, P90: c.P90, Max: c.Max,
	})
	tr.record(rootID, 0, op, spanReplay, rootStart, time.Now())
	return append(body, '\n'), st, err
}

// replayTrial is core.EstimateTrial with a clock around each station.
func replayTrial(spec core.Spec, src, dst graph.Vertex, trial, maxTries int, seed uint64, st *stations, tr *tracer, parent, op int) core.TrialResult {
	trialSeed := rng.Combine(seed, uint64(trial))
	var res core.TrialResult
	for try := 0; try < maxTries; try++ {
		st.tries++
		sampleSeed := rng.Combine(trialSeed, uint64(try))
		t0 := time.Now()
		s := percolation.New(spec.Graph, spec.P, sampleSeed)
		mask := spec.Fault.Sample(spec.Graph, sampleSeed)
		if mask != nil {
			s = s.WithDead(mask)
		}
		t1 := time.Now()
		conn, err := percolation.Connected(s, src, dst)
		mask.Release()
		t2 := time.Now()
		st.sample += t1.Sub(t0)
		st.connected += t2.Sub(t1)
		tr.record(0, parent, op, spanSample, t0, t1)
		tr.record(0, parent, op, spanConnected, t1, t2)
		if err != nil {
			res.Err = err
			return res
		}
		if !conn {
			res.Rejected++
			continue
		}
		o, err := core.Run(spec, src, dst, sampleSeed)
		t3 := time.Now()
		st.run += t3.Sub(t2)
		tr.record(0, parent, op, spanRun, t2, t3)
		if err != nil {
			res.Err = err
			return res
		}
		st.probes += int64(o.Probes)
		st.calls += int64(o.Calls)
		switch {
		case o.Err == nil:
			res.Probes = float64(o.Probes)
			res.Accepted = true
			st.accepted++
		case errors.Is(o.Err, probe.ErrBudget):
			res.Censored = true
		default:
			res.Err = fmt.Errorf("replay: router failed on a connected pair: %w", o.Err)
		}
		return res
	}
	res.Err = fmt.Errorf("%w: replay of trial %d", core.ErrConditioning, trial)
	return res
}
