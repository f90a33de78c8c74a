package main

import (
	"math"
	"sort"
	"time"
)

// schedule is an open-loop arrival schedule: op i is due at i/rate
// seconds after the start, whatever happened to the ops before it.
type schedule struct {
	rate int // ops per second
}

// due is op i's due time, in ns after the start.
func (s schedule) due(i int) int64 {
	return int64(i) * int64(time.Second) / int64(s.rate)
}

// clock is the generator's view of time, in ns on one monotonic base.
// The real clock sleeps; tests substitute a fake one.
type clock interface {
	now() int64
	sleep(d time.Duration)
}

// pace issues ops in schedule order until stop reports true: it calls
// issue(i) for every op i whose due time has passed, never before, then
// sleeps until the next one is due. It returns how many ops it issued.
// issue runs on the calling goroutine, so it must not block.
func pace(c clock, s schedule, start int64, stop func() bool, issue func(i int, due, now int64)) int {
	i := 0
	for !stop() {
		now := c.now()
		for {
			due := start + s.due(i)
			if due > now {
				break
			}
			issue(i, due, now)
			i++
			// Each issue takes time, so re-read the clock before the
			// next op: its recorded invoke time must be the real call
			// time, not a stale one.
			now = c.now()
		}
		if wait := start + s.due(i) - now; wait > 0 {
			c.sleep(time.Duration(wait))
		}
	}
	return i
}

// realClock reads a monotonic base shared by every timestamp a run takes.
type realClock struct{ base time.Time }

func (c realClock) now() int64            { return int64(time.Since(c.base)) }
func (c realClock) sleep(d time.Duration) { time.Sleep(d) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule: the smallest sample with at least a q share of the samples at or
// below it. xs is sorted in place. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }
