package percolation

import (
	"context"
	"errors"
	"fmt"

	"faultroute/internal/graph"
	"faultroute/internal/rng"
	"faultroute/internal/runner"
)

// ErrBadBracket is returned by FindThreshold when the event probability
// does not bracket the target on [lo, hi].
var ErrBadBracket = errors.New("percolation: threshold target not bracketed")

// EventProbability estimates Pr[event] by Monte Carlo over `trials`
// independent seeds derived from baseSeed; trials <= 0 estimates 0. The
// event receives the trial seed and must be deterministic in it. Each
// trial's seed is split from (baseSeed, trial), so the estimate is
// identical for every workers value (<= 0 selects all cores); the event
// must be safe for concurrent calls when more than one worker runs. A
// done ctx aborts the estimate with ctx's error, and progress — when
// non-nil — observes each completed trial.
func EventProbability(ctx context.Context, trials int, baseSeed uint64, workers int, progress runner.Progress, event func(seed uint64) bool) (float64, error) {
	if trials <= 0 {
		return 0, nil
	}
	hitFlags, err := runner.Map(ctx, workers, trials, progress, func(t int) (bool, error) {
		return event(rng.Combine(baseSeed, uint64(t))), nil
	})
	if err != nil {
		return 0, err
	}
	hits := 0
	for _, h := range hitFlags {
		if h {
			hits++
		}
	}
	return float64(hits) / float64(trials), nil
}

// ConnectionProbability estimates Pr[u ~ v] in G_p over `trials` samples,
// using exact component labeling per sample.
func ConnectionProbability(g graph.Graph, p float64, u, v graph.Vertex, trials int, baseSeed uint64) (float64, error) {
	var labelErr error
	prob, err := EventProbability(context.Background(), trials, baseSeed, 1, nil, func(seed uint64) bool {
		comps, err := Label(New(g, p, seed))
		if err != nil {
			labelErr = err
			return false
		}
		return comps.Connected(u, v)
	})
	if labelErr != nil {
		return 0, labelErr
	}
	return prob, err
}

// FindThreshold locates the p at which the (monotone increasing in p)
// event probability crosses target, by bisection on [lo, hi] down to
// width tol. The event receives (p, seed). The Monte-Carlo trials of
// each bisection step are sharded across workers (the steps themselves
// are inherently sequential), so the located threshold is identical for
// every workers value. ctx and progress are threaded through every
// EventProbability batch of the bisection.
func FindThreshold(ctx context.Context, lo, hi, target, tol float64, trials int, baseSeed uint64, workers int, progress runner.Progress, event func(p float64, seed uint64) bool) (float64, error) {
	if lo >= hi || tol <= 0 {
		return 0, fmt.Errorf("percolation: invalid bracket [%v, %v] or tol %v", lo, hi, tol)
	}
	if trials <= 0 {
		return 0, fmt.Errorf("percolation: threshold search needs positive trials, got %d", trials)
	}
	probAt := func(p float64) (float64, error) {
		return EventProbability(ctx, trials, rng.Combine(baseSeed, uint64(p*1e9)), workers, progress, func(seed uint64) bool {
			return event(p, seed)
		})
	}
	pl, err := probAt(lo)
	if err != nil {
		return 0, err
	}
	ph, err := probAt(hi)
	if err != nil {
		return 0, err
	}
	if pl > target || ph < target {
		return 0, fmt.Errorf("%w: Pr(lo)=%.3f Pr(hi)=%.3f target=%.3f",
			ErrBadBracket, pl, ph, target)
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		pm, err := probAt(mid)
		if err != nil {
			return 0, err
		}
		if pm < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// GiantStats summarizes the component structure of one percolation
// configuration.
type GiantStats struct {
	P              float64
	GiantFraction  float64
	SecondFraction float64
	Components     uint64
}

// SampleFactory builds the percolation sample of one Monte-Carlo scan
// cell from its retention probability and split seed, returning the
// sample plus an optional release hook (nil when there is nothing to
// free) that the scan invokes once the cell's labeling is done. It is
// how the correlated failure models of internal/sim attach per-sample
// dead-vertex masks to a scan without this package knowing how masks are
// drawn; a nil factory is plain bond percolation (New).
type SampleFactory func(p float64, seed uint64) (Sample, func())

// scanCell builds the sample of scan cell (row, t) from the seed split
// from (baseSeed, row, t). A nil newSample draws plain bond percolation,
// which needs no release hook.
func scanCell(g graph.Graph, newSample SampleFactory, p float64, baseSeed uint64, row, t int) (Sample, func()) {
	seed := rng.Combine(baseSeed, uint64(row)<<32|uint64(t))
	if newSample == nil {
		return New(g, p, seed), nil
	}
	return newSample(p, seed)
}

// GiantScan labels `trials` samples at each p, each built by newSample
// (nil means plain bond percolation), and returns the mean giant and
// second-component fractions; the backbone of the E9 (AKS threshold)
// experiment. Every (row, trial) sample is sharded across one worker
// pool — a single-p sweep with many trials saturates the pool just as
// well as a many-p sweep. Sample seeds are split from (baseSeed, row
// index, trial) and per-row folds run in trial order, so results are
// bit-identical for every workers value (<= 0 selects all cores). A done
// ctx aborts the scan with ctx's error, and progress — when non-nil —
// observes each labeled sample.
func GiantScan(ctx context.Context, g graph.Graph, ps []float64, trials int, baseSeed uint64, workers int, progress runner.Progress, newSample SampleFactory) ([]GiantStats, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("percolation: giant scan needs positive trials, got %d", trials)
	}
	type sample struct {
		giant, second float64
		components    uint64
	}
	samples, err := runner.Map(ctx, workers, len(ps)*trials, progress, func(flat int) (sample, error) {
		row, t := flat/trials, flat%trials
		s, release := scanCell(g, newSample, ps[row], baseSeed, row, t)
		if release != nil {
			defer release()
		}
		comps, err := Label(s)
		if err != nil {
			return sample{}, err
		}
		sizes := comps.SizesDescending()
		order := float64(g.Order())
		out := sample{giant: float64(sizes[0]) / order, components: comps.Count()}
		if len(sizes) > 1 {
			out.second = float64(sizes[1]) / order
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]GiantStats, len(ps))
	for i, p := range ps {
		acc := GiantStats{P: p}
		for t := 0; t < trials; t++ {
			s := samples[i*trials+t]
			acc.GiantFraction += s.giant
			acc.SecondFraction += s.second
			acc.Components += s.components
		}
		acc.GiantFraction /= float64(trials)
		acc.SecondFraction /= float64(trials)
		acc.Components /= uint64(trials)
		out[i] = acc
	}
	return out, nil
}
