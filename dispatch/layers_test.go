package dispatch

// White-box tests of the layer policies in isolation: planner sizing
// math, capacity-weighted placement, and cooldown/EWMA recovery.

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"testing"
	"time"

	"faultroute/api"
)

func TestAdaptivePlannerColdStartMatchesHeuristic(t *testing.T) {
	p := &adaptivePlanner{target: time.Second}
	if got, want := p.shardSize(100, 3), heuristicShardSize(100, 3); got != want {
		t.Fatalf("cold shardSize = %d, want heuristic %d", got, want)
	}
}

func TestAdaptivePlannerTracksObservedLatency(t *testing.T) {
	p := &adaptivePlanner{target: time.Second}
	// 10ms per trial observed: the target fits 100 trials per shard, but
	// the upper clamp (two shards per backend) must cap it for a small
	// job first.
	p.observe(10, 100*time.Millisecond)
	if got := p.shardSize(1000, 4); got != 100 {
		t.Fatalf("shardSize(1000 trials, 4 backends) = %d, want 100 (target/perTrial)", got)
	}
	if got, max := p.shardSize(100, 4), (100+7)/8; got != max {
		t.Fatalf("shardSize(100 trials, 4 backends) = %d, want clamp %d (2 shards per backend)", got, max)
	}
	// Very slow trials: the lower clamp (8 shards per backend) keeps the
	// job from shattering into per-trial jobs.
	slow := &adaptivePlanner{target: time.Second}
	slow.observe(1, 10*time.Second)
	if got, min := slow.shardSize(640, 4), 640/32; got != min {
		t.Fatalf("shardSize under slow trials = %d, want clamp %d (8 shards per backend)", got, min)
	}
}

func TestShardRangesCoverTrialsExactly(t *testing.T) {
	pl := fixedPlanner{size: 7}
	ranges := shardRanges(pl, estimateRequest(40), 3)
	var total int
	next := 0
	for _, r := range ranges {
		if r.Offset != next {
			t.Fatalf("range offset %d, want %d (contiguous from 0)", r.Offset, next)
		}
		next = r.Offset + r.Count
		total += r.Count
	}
	if total != 40 {
		t.Fatalf("ranges cover %d trials, want 40", total)
	}
}

// placementKeys returns n fixed content addresses for placement tests.
func placementKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

func TestPlacementOwnerIgnoresMemberOrder(t *testing.T) {
	a := &member{url: "http://10.0.0.1:8080"}
	b := &member{url: "http://10.0.0.2:8080"}
	c := &member{url: "http://10.0.0.3:8080"}
	for _, k := range placementKeys(200) {
		want := place(k, []*member{a, b, c})
		for _, perm := range [][]*member{{c, b, a}, {b, a, c}, {c, a, b}} {
			if got := place(k, perm); !slices.Equal(got, want) {
				t.Fatalf("key %s: order over a permuted member slice differs", k)
			}
		}
	}
}

func TestPlacementRemovalMovesOnlyOwnedKeys(t *testing.T) {
	a := &member{url: "http://10.0.0.1:8080"}
	b := &member{url: "http://10.0.0.2:8080"}
	c := &member{url: "http://10.0.0.3:8080"}
	moved := 0
	for _, k := range placementKeys(1000) {
		before := place(k, []*member{a, b, c})
		after := place(k, []*member{a, c})
		if before[0] != b {
			if after[0] != before[0] {
				t.Fatalf("key %s moved from %s to %s although its owner stayed", k, before[0].url, after[0].url)
			}
			continue
		}
		// b's keys move to the next member in their own order.
		if after[0] != before[1] {
			t.Fatalf("key %s owned by the removed member went to %s, want its runner-up %s", k, after[0].url, before[1].url)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("the removed member owned none of 1000 keys")
	}
}

func TestPlacementFavorsFastMembers(t *testing.T) {
	fast := &member{url: "http://10.0.0.1:8080", ewma: time.Millisecond}
	slowA := &member{url: "http://10.0.0.2:8080", ewma: 8 * time.Millisecond}
	slowB := &member{url: "http://10.0.0.3:8080", ewma: 8 * time.Millisecond}
	counts := map[string]int{}
	for _, k := range placementKeys(1000) {
		counts[place(k, []*member{fast, slowA, slowB})[0].url]++
	}
	// Weights 8:1:1 make the fast member own about four keys in five.
	if counts[fast.url] <= counts[slowA.url]+counts[slowB.url] {
		t.Fatalf("fast member owns %d keys against %d and %d, want a clear capacity split",
			counts[fast.url], counts[slowA.url], counts[slowB.url])
	}
	if counts[slowA.url] == 0 || counts[slowB.url] == 0 {
		t.Fatalf("a slow member owns no key (%v): the weight cap must keep it sampled", counts)
	}
}

func TestPlacementIgnoresLatencyInsideDeadBand(t *testing.T) {
	// Latency differences below weightRatioCap must not move any key:
	// every move sends a repeat to a backend that lacks its bytes.
	cold := []*member{{url: "http://10.0.0.1:8080"}, {url: "http://10.0.0.2:8080"}, {url: "http://10.0.0.3:8080"}}
	warm := []*member{
		{url: cold[0].url, ewma: time.Millisecond},
		{url: cold[1].url, ewma: 3 * time.Millisecond},
		{url: cold[2].url, ewma: 7 * time.Millisecond},
	}
	for _, k := range placementKeys(1000) {
		if a, b := place(k, cold)[0].url, place(k, warm)[0].url; a != b {
			t.Fatalf("key %s moved from %s to %s on latency inside the dead band", k, a, b)
		}
	}
}

func TestPlacementPicksByTier(t *testing.T) {
	a := &member{url: "a"}
	b := &member{url: "b"}
	c := &member{url: "c"}
	order := []*member{a, b, c}
	cases := []struct {
		name  string
		tried map[*member]bool
		down  []*member
		want  *member
	}{
		{"owner first", nil, nil, a},
		{"up and untried beats untried", nil, []*member{a}, b},
		{"untried beats up", map[*member]bool{a: true, b: true}, []*member{c}, c},
		{"up beats tried and down", map[*member]bool{a: true, b: true, c: true}, []*member{a}, b},
		{"all tried and down falls back to the owner", map[*member]bool{a: true, b: true, c: true}, order, a},
	}
	for _, tc := range cases {
		for _, m := range order {
			m.downUntil = time.Time{}
		}
		for _, m := range tc.down {
			m.downUntil = time.Now().Add(time.Hour)
		}
		if got := pick(order, tc.tried); got != tc.want {
			t.Errorf("%s: pick chose %q, want %q", tc.name, got.url, tc.want.url)
		}
	}
}

func TestMemberRecoverResetsEWMAToFleetMedian(t *testing.T) {
	m := &member{url: "x"}
	m.observe(time.Millisecond)
	m.markDown(time.Hour)
	// The failure-era estimate is catastrophic; recovery must not keep it.
	m.wasDown = true
	m.ewma = 10 * time.Second

	median := 2 * time.Millisecond
	m.recover(median)
	if !m.up() {
		t.Fatal("recovered member still in cooldown")
	}
	if got := m.trialEWMA(); got != median {
		t.Fatalf("recovered EWMA = %v, want fleet median %v", got, median)
	}
	// A second recover is a no-op: only a down member resets.
	m.observe(5 * time.Millisecond)
	before := m.trialEWMA()
	m.recover(median)
	if got := m.trialEWMA(); got != before {
		t.Fatalf("recover on a healthy member rewrote its EWMA: %v -> %v", before, got)
	}
}

func TestMemberObserveDiscardsPreFailureEWMA(t *testing.T) {
	m := &member{url: "y"}
	m.observe(10 * time.Second) // pathological pre-failure estimate
	m.markDown(time.Millisecond)
	time.Sleep(2 * time.Millisecond) // cooldown lapses on its own
	m.observe(time.Millisecond)
	if got := m.trialEWMA(); got != time.Millisecond {
		t.Fatalf("post-failure EWMA = %v, want a clean restart at 1ms", got)
	}
}

func TestFleetMedianEWMA(t *testing.T) {
	members := []*member{
		{ewma: 3 * time.Millisecond},
		{ewma: time.Millisecond},
		{}, // no observation: excluded
		{ewma: 9 * time.Millisecond},
	}
	if got := fleetMedianEWMA(members); got != 3*time.Millisecond {
		t.Fatalf("fleet median = %v, want 3ms", got)
	}
	if got := fleetMedianEWMA([]*member{{}, {}}); got != 0 {
		t.Fatalf("median of unobserved fleet = %v, want 0", got)
	}
}

func TestHedgerDelayFloorsAndScales(t *testing.T) {
	h := hedger{enabled: true, floor: 400 * time.Millisecond, factor: 2}
	if got := h.delay(0); got != 400*time.Millisecond {
		t.Fatalf("delay with unknown expectation = %v, want the 400ms floor", got)
	}
	if got := h.delay(time.Second); got != 2*time.Second {
		t.Fatalf("delay for a 1s attempt = %v, want 2s (factor)", got)
	}
}

// estimateRequest builds a minimal normalized estimate for planner
// tests (white-box: no wire validation needed).
func estimateRequest(trials int) api.Request {
	return api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{Trials: trials}}
}
