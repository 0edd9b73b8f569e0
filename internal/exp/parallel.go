package exp

import "faultroute/internal/runner"

// parTrials runs fn(trial) for trial in [0, trials) across the config's
// worker budget and returns the per-trial results in trial order.
//
// This is the one idiom every experiment's inner Monte-Carlo loop uses:
// the closure derives all of its randomness from the trial index (via
// cfg.trialSeed or an equivalent split), computes one trial's
// observables into a small result value, and the caller folds the
// ordered results exactly as the old sequential loop did — so tables
// are bit-identical for every worker count.
func parTrials[T any](cfg Config, trials int, fn func(trial int) (T, error)) ([]T, error) {
	return runner.Map(cfg.Context, cfg.Workers, trials, runner.Progress(cfg.Progress), fn)
}
