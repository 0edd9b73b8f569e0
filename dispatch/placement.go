package dispatch

// The placement layer: which backend runs a sub-job. Placement is
// weighted rendezvous (highest-random-weight) hashing over the
// sub-job's content address: every member scores w / -ln(u), where u is
// a hash of (key, member URL) mapped into (0, 1) and w the member's
// capacity weight, and the members are tried in descending score. The
// head of that order is the key's owner — the backend that computed
// (and caches) the bytes the last time this key ran — so a repeated
// sub-job reaches its result by construction, with no probing. Failover
// walks down the same order, and membership changes move only the keys
// the joining or leaving member owns.
//
// Scores with weight w win in proportion to w (each -ln(u)/w is an
// exponential race), so a member of weight 8 owns eight times the keys
// of a member of weight 1. With no observations, or latencies inside
// the dead band below, every weight is 1 and ownership is uniform.

import (
	"cmp"
	"hash/fnv"
	"io"
	"math"
	"slices"

	"faultroute/internal/rng"
)

// weightRatioCap is both the dead band and the cap of a member's
// placement weight: a member whose per-trial latency is within this
// factor of the fleet median weighs exactly 1; one at least this much
// faster or slower weighs weightRatioCap or its inverse. The dead band
// is wide because every weight change moves keys away from the
// backends that cache their bytes, while latency differences inside it
// are mostly noise: identical backends serving millisecond shards
// measure up to about five times apart. The cap keeps a slow member
// owning an eighth of a median member's share of keys, which is also
// what keeps its EWMA fresh enough to notice a recovery.
const weightRatioCap = 8.0

// place returns members in placement order for the sub-job with
// content address key: descending weighted rendezvous score.
func place(key string, members []*member) []*member {
	type scored struct {
		m     *member
		score float64
	}
	weights := memberWeights(members)
	kh := hash64(key)
	ranked := make([]scored, len(members))
	for i, m := range members {
		// u in (0, 1): the top 53 bits of the hash, shifted off zero.
		u := (float64(rng.Combine(kh, hash64(m.url))>>11) + 0.5) / (1 << 53)
		ranked[i] = scored{m, weights[i] / -math.Log(u)}
	}
	slices.SortFunc(ranked, func(a, b scored) int { return cmp.Compare(b.score, a.score) })
	order := make([]*member, len(ranked))
	for i, r := range ranked {
		order[i] = r.m
	}
	return order
}

// hash64 is the FNV-1a hash of s.
func hash64(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// pick returns the first member of a placement order in the best
// preference tier: up and untried beats untried (a fresh chance beats
// a backend that failed THIS sub-job) beats up. A fully down, fully
// tried pool still yields the owner: the caller's attempt budget is
// the real bound.
func pick(order []*member, tried map[*member]bool) *member {
	var best *member
	bestTier := 0
	for _, m := range order {
		tier := 0
		if tried[m] {
			tier += 2
		}
		if !m.up() {
			tier++
		}
		if best == nil || tier < bestTier {
			best, bestTier = m, tier
		}
	}
	return best
}

// memberWeights maps observed speed to placement weight: 1 for a
// member within weightRatioCap of the fleet-median per-trial latency,
// weightRatioCap for a member that much faster, its inverse for one
// that much slower. Members without an observation weigh exactly 1 —
// a joiner is presumed median until measured.
func memberWeights(cands []*member) []float64 {
	median := fleetMedianEWMA(cands)
	weights := make([]float64, len(cands))
	for i, m := range cands {
		weights[i] = 1
		e := m.trialEWMA()
		switch {
		case e <= 0 || median <= 0:
		case float64(median) >= weightRatioCap*float64(e):
			weights[i] = weightRatioCap
		case float64(e) >= weightRatioCap*float64(median):
			weights[i] = 1 / weightRatioCap
		}
	}
	return weights
}
