package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFailuresCounted pins the benchmark's own accounting: a corrupted
// answer and an op that outlives its deadline — whether it honours its
// context or ignores it — are failures, not successes or a stalled run.
func TestFailuresCounted(t *testing.T) {
	const deadline = 50 * time.Millisecond
	op := func(ctx context.Context, i int) error {
		switch i {
		case 1: // corrupted answer
			return wrong("got %d, want %d", 41, 42)
		case 2: // hangs until its deadline cancels it
			<-ctx.Done()
			return ctx.Err()
		case 3: // ignores its context and answers late, but correctly
			time.Sleep(2 * deadline)
			return nil
		}
		return nil
	}
	for name, samples := range map[string][]sample{
		"closed": closedLoop(context.Background(), 6, 2, deadline, op),
		"open":   openLoop(context.Background(), make([]time.Duration, 6), 0, 2, deadline, op),
	} {
		o := summarize(samples)
		if o.attempted != 6 || o.failed != 3 || o.wrong != 1 || len(o.lats) != 3 {
			t.Errorf("%s loop: attempted=%d failed=%d wrong=%d ok=%d, want 6, 3, 1, 3",
				name, o.attempted, o.failed, o.wrong, len(o.lats))
		}
		if !errors.Is(samples[1].err, errWrongAnswer) {
			t.Errorf("%s loop: corrupted answer reported as %v", name, samples[1].err)
		}
		for _, i := range []int{2, 3} {
			if !errors.Is(samples[i].err, errDeadline) {
				t.Errorf("%s loop: op %d past its deadline reported as %v", name, i, samples[i].err)
			}
		}
	}
}

// TestTailPercentile pins the tail rule: the highest ladder percentile,
// up to p95, with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{3000, 95, 150}, {200, 95, 10}, {199, 90, 19}, {40, 75, 10}, {10, 50, 5}} {
		if p, b := tailPercentile(c.n); p != c.p || b != c.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, p, b, c.p, c.beyond)
		}
	}
}

// TestIntervals pins the interval arithmetic behind worker self time.
func TestIntervals(t *testing.T) {
	a := union([]interval{{0, 10}, {5, 20}, {30, 40}})
	b := union([]interval{{8, 12}, {15, 35}})
	if got := length(a); got != 30 {
		t.Errorf("length = %d, want 30", got)
	}
	if got := overlap(a, b); got != 4+5+5 {
		t.Errorf("overlap = %d, want 14", got)
	}
}
