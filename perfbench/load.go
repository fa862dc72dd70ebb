package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// errWrongAnswer marks an op whose result disagreed with the reference
// answer computed when the inputs were generated.
var errWrongAnswer = errors.New("wrong answer")

// errDeadline marks an op that returned only after its deadline.
var errDeadline = errors.New("deadline expired")

// wrong reports a result that failed its check.
func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrongAnswer, fmt.Sprintf(format, args...))
}

// opFunc runs op i and checks its answer. It returns nil only for a
// correct answer.
type opFunc func(ctx context.Context, i int) error

// sample is the outcome of one timed op.
type sample struct {
	lat  time.Duration // from the intended send time to completion
	late time.Duration // open loop: actual send time minus intended
	err  error
}

// runOne runs op i under its own deadline. An op that returns after the
// deadline fails even when its answer is right, so a hang is counted
// rather than stalling the run. Latency counts from `from`, or from the
// intended send time `due` when from is zero.
func runOne(ctx context.Context, op opFunc, i int, deadline time.Duration, due, from time.Time) sample {
	sent := time.Now()
	octx, cancel := context.WithDeadline(ctx, sent.Add(deadline))
	err := op(octx, i)
	cancel()
	done := time.Now()
	if err == nil && done.Sub(sent) > deadline {
		err = errDeadline
	}
	if err != nil && octx.Err() != nil && !errors.Is(err, errWrongAnswer) {
		err = fmt.Errorf("%w: %v", errDeadline, err)
	}
	if from.IsZero() {
		from = due
	}
	return sample{lat: done.Sub(from), late: sent.Sub(due), err: err}
}

// closedLoop runs ops 0..n-1 from `clients` goroutines, each sending its
// next op only after the previous one returned.
func closedLoop(ctx context.Context, n, clients int, deadline time.Duration, op opFunc) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i] = runOne(ctx, op, i, deadline, time.Now(), time.Time{})
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends op i at start+arrivals[i]-base from `senders`
// goroutines, no matter how earlier ops fare. Latency counts from the intended send
// time, so a stall also charges the ops queued behind it; how late each
// op actually went out is recorded as the generator's lag.
func openLoop(ctx context.Context, arrivals []time.Duration, base time.Duration, senders int, deadline time.Duration, op opFunc) []sample {
	out := make([]sample, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				due, from := start.Add(arrivals[i]-base), time.Time{}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					// The sender was idle, so it is not behind a stalled
					// op: a sub-millisecond Go timer sleep wakes up to a
					// millisecond late in an idle process, and that lag
					// is the generator's, not the system's.
					from = time.Now()
				}
				out[i] = runOne(ctx, op, i, deadline, due, from)
			}
		}()
	}
	wg.Wait()
	return out
}

// outcome summarizes a timed phase's samples.
type outcome struct {
	attempted, failed, wrong int
	firstErr                 error
	lats                     []time.Duration // successful ops, sorted
	lates                    []time.Duration // every op, sorted
}

func summarize(samples []sample) outcome {
	o := outcome{attempted: len(samples)}
	for _, s := range samples {
		o.lates = append(o.lates, s.late)
		if s.err != nil {
			o.failed++
			if errors.Is(s.err, errWrongAnswer) {
				o.wrong++
			}
			if o.firstErr == nil {
				o.firstErr = s.err
			}
			continue
		}
		o.lats = append(o.lats, s.lat)
	}
	sortDurations(o.lats)
	sortDurations(o.lates)
	return o
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// tailPercentile is the highest percentile of a ladder that still has
// at least ten samples beyond it, with that sample count. The ladder
// stops at p95: on serve-zipf, p99 falls among the 1–3% of ops that
// meet an in-process collector or scheduler stall, and it spread by
// 0.6–0.75 of its median across runs, where p95 spread by 0.06–0.07.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range []float64{95, 90, 75} {
		if b := int(float64(n) * (100 - p) / 100); b >= 10 {
			return p, b
		}
	}
	return 50, n / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
