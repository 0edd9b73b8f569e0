package percolation

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"faultroute/internal/graph"
)

// TestMonteCarloLoopsDeterminismContract pins the contract every
// Monte-Carlo loop of this package shares: results do not depend on the
// worker count, a done ctx aborts with ctx's error, and a nil
// SampleFactory is plain bond percolation.
func TestMonteCarloLoopsDeterminismContract(t *testing.T) {
	g := graph.MustMesh(2, 8)
	ps := []float64{0.3, 0.5, 0.7}
	u, v := graph.Vertex(0), graph.Vertex(g.Order()-1)
	connected := func(p float64, seed uint64) bool {
		comps, err := Label(New(g, p, seed))
		return err == nil && comps.Connected(u, v)
	}
	plain := func(p float64, seed uint64) (Sample, func()) { return New(g, p, seed), nil }

	cases := []struct {
		name string
		// sampled marks the loops that take a SampleFactory.
		sampled bool
		run     func(ctx context.Context, workers int, newSample SampleFactory) (any, error)
	}{
		{"EventProbability", false, func(ctx context.Context, workers int, _ SampleFactory) (any, error) {
			return EventProbability(ctx, 40, 5, workers, nil, func(seed uint64) bool { return connected(0.55, seed) })
		}},
		{"FindThreshold", false, func(ctx context.Context, workers int, _ SampleFactory) (any, error) {
			return FindThreshold(ctx, 0.2, 0.95, 0.5, 0.05, 30, 7, workers, nil, connected)
		}},
		{"GiantScan", true, func(ctx context.Context, workers int, newSample SampleFactory) (any, error) {
			return GiantScan(ctx, g, ps, 6, 9, workers, nil, newSample)
		}},
		{"ClusterScan", true, func(ctx context.Context, workers int, newSample SampleFactory) (any, error) {
			return ClusterScan(ctx, g, ps, 6, 9, workers, nil, newSample)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(context.Background(), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.run(context.Background(), 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			// DeepEqual, not ==: ClusterStats carries a SizeHistogram map.
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers 4 differs from workers 1:\n%+v\n%+v", got, want)
			}
			if tc.sampled {
				got, err := tc.run(context.Background(), 4, plain)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("explicit New factory differs from nil factory:\n%+v\n%+v", got, want)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for _, workers := range []int{1, 4} {
				if _, err := tc.run(ctx, workers, nil); !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: canceled ctx gave err = %v, want context.Canceled", workers, err)
				}
			}
		})
	}
}
