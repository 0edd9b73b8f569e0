package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 33} {
		out, err := Map(nil, workers, 100, nil, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(nil, 4, 0, nil, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(0 items) = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	errAt := func(bad map[int]bool) error {
		_, err := Map(nil, 8, 64, nil, func(i int) (int, error) {
			if bad[i] {
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		})
		return err
	}
	// Whatever the scheduling, the reported error must be the one a
	// sequential loop would have stopped on — the lowest failing index.
	for trial := 0; trial < 20; trial++ {
		err := errAt(map[int]bool{7: true, 40: true, 63: true})
		if err == nil || err.Error() != "fail at 7" {
			t.Fatalf("trial %d: err = %v, want fail at 7", trial, err)
		}
	}
}

func TestMapErrorSkipsRemainingWork(t *testing.T) {
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(nil, 4, 1_000_000, nil, func(i int) (int, error) {
		calls.Add(1)
		return 0, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n > 1000 {
		t.Fatalf("ran %d shards after failure; cancellation is not working", n)
	}
}

// TestMapDefaultsToAllCores: workers <= 0 selects GOMAXPROCS, and no
// more workers run than there are shards.
func TestMapDefaultsToAllCores(t *testing.T) {
	for _, w := range []int{0, -1} {
		if got := poolSize(w, 1<<20); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("poolSize(%d) = %d, want GOMAXPROCS = %d", w, got, runtime.GOMAXPROCS(0))
		}
	}
	if got := poolSize(7, 100); got != 7 {
		t.Fatalf("poolSize(7, 100) = %d", got)
	}
	if got := poolSize(7, 3); got != 3 {
		t.Fatalf("poolSize(7, 3) = %d, want the shard count", got)
	}
	// End to end: a default-width Map still returns every result.
	out, err := Map(nil, 0, 5, nil, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 5 {
		t.Fatalf("Map(workers 0) = (%v, %v)", out, err)
	}
}
