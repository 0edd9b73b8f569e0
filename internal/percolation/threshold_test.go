package percolation

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"faultroute/internal/graph"
)

// eventProbability is a single-worker EventProbability that fails the
// test on error.
func eventProbability(t *testing.T, trials int, baseSeed uint64, event func(seed uint64) bool) float64 {
	t.Helper()
	prob, err := EventProbability(context.Background(), trials, baseSeed, 1, nil, event)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func TestEventProbabilityExtremes(t *testing.T) {
	always := eventProbability(t, 50, 1, func(uint64) bool { return true })
	never := eventProbability(t, 50, 1, func(uint64) bool { return false })
	if always != 1 || never != 0 {
		t.Fatalf("got %v and %v", always, never)
	}
	if eventProbability(t, 0, 1, func(uint64) bool { return true }) != 0 {
		t.Fatal("zero trials should yield 0")
	}
}

func TestEventProbabilityCoinIsFair(t *testing.T) {
	got := eventProbability(t, 4000, 9, func(seed uint64) bool { return seed%2 == 0 })
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("parity event probability = %v", got)
	}
}

func TestConnectionProbabilityMonotone(t *testing.T) {
	g := graph.MustMesh(2, 8)
	u := graph.Vertex(0)
	v := graph.Vertex(g.Order() - 1)
	var prev float64
	for i, p := range []float64{0.3, 0.6, 0.95} {
		prob, err := ConnectionProbability(g, p, u, v, 60, 4)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && prob+0.15 < prev { // allow Monte Carlo slack
			t.Fatalf("connection probability decreased: %v -> %v at p=%v", prev, prob, p)
		}
		prev = prob
	}
	if prev < 0.9 {
		t.Fatalf("connection probability at p=0.95 = %v, want near 1", prev)
	}
}

func TestFindThresholdOnKnownEvent(t *testing.T) {
	// Synthetic monotone event: open a single Bernoulli(p) coin. The
	// probability of the event is exactly p, so the p at which it crosses
	// target 0.5 is 0.5.
	g := graph.MustRing(3)
	got, err := FindThreshold(context.Background(), 0, 1, 0.5, 0.02, 600, 11, 1, nil, func(p float64, seed uint64) bool {
		s := New(g, p, seed)
		open, _ := s.Open(0, 1)
		return open
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.08 {
		t.Fatalf("threshold = %v, want ~0.5", got)
	}
}

func TestFindThresholdBadBracket(t *testing.T) {
	_, err := FindThreshold(context.Background(), 0.8, 0.9, 0.5, 0.01, 50, 1, 1, nil, func(p float64, seed uint64) bool {
		return true // probability 1 everywhere: lower bound already above target
	})
	if !errors.Is(err, ErrBadBracket) {
		t.Fatalf("err = %v, want ErrBadBracket", err)
	}
	if _, err := FindThreshold(context.Background(), 0.9, 0.1, 0.5, 0.01, 10, 1, 1, nil, nil); err == nil {
		t.Fatal("inverted bracket accepted")
	}
	// Zero trials estimate every event probability as 0; that must be
	// rejected up front, not reported as an unbracketed target.
	always := func(float64, uint64) bool { return true }
	for _, trials := range []int{0, -3} {
		_, err := FindThreshold(context.Background(), 0.01, 0.99, 0.5, 0.01, trials, 1, 1, nil, always)
		if err == nil || errors.Is(err, ErrBadBracket) || !strings.Contains(err.Error(), "needs positive trials") {
			t.Fatalf("trials=%d: err = %v, want a positive-trials error", trials, err)
		}
	}
}

func TestGiantScanMonotoneAndBounded(t *testing.T) {
	g := graph.MustHypercube(9)
	stats, err := GiantScan(context.Background(), g, []float64{0.05, 0.2, 0.5, 0.9}, 5, 17, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("got %d rows", len(stats))
	}
	for i, st := range stats {
		if st.GiantFraction < 0 || st.GiantFraction > 1 {
			t.Fatalf("giant fraction %v out of range", st.GiantFraction)
		}
		if st.SecondFraction > st.GiantFraction {
			t.Fatalf("second %v exceeds giant %v", st.SecondFraction, st.GiantFraction)
		}
		if i > 0 && st.GiantFraction+0.1 < stats[i-1].GiantFraction {
			t.Fatalf("giant fraction decreased with p: %v -> %v",
				stats[i-1].GiantFraction, st.GiantFraction)
		}
	}
	if stats[3].GiantFraction < 0.99 {
		t.Fatalf("giant fraction at p=0.9 = %v, want ~1", stats[3].GiantFraction)
	}
}

func TestMeshCriticalPointIsHalf(t *testing.T) {
	// Kesten: p_c = 1/2 for the 2-d lattice. On a finite box, the
	// probability that the two opposite corners connect crosses 1/2 near
	// p = 0.5 (finite-size effects shift it up somewhat; we assert a
	// loose bracket around the known value).
	if testing.Short() {
		t.Skip("Monte Carlo scan")
	}
	g := graph.MustMesh(2, 24)
	u := graph.Vertex(0)
	v := graph.Vertex(g.Order() - 1)
	got, err := FindThreshold(context.Background(), 0.3, 0.95, 0.5, 0.01, 300, 23, 1, nil, func(p float64, seed uint64) bool {
		comps, err := Label(New(g, p, seed))
		if err != nil {
			return false
		}
		return comps.Connected(u, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.45 || got < 0.5 && got > 0.75 || got > 0.75 {
		t.Fatalf("corner-connection threshold = %v, want in [0.45, 0.75]", got)
	}
}
