package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a named percentile
// before it may be reported: a p90 needs at least 100 samples, a p99
// at least 1000. With fewer, the percentile is an error, not a number.
const minBeyond = 10

// need returns the sample count at which percentile q has beyond
// samples past it.
func need(q float64, beyond int) int {
	return int(math.Ceil(float64(beyond)/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of xs, or an error
// when fewer than beyond samples lie past it. xs is not modified.
func percentile(xs []float64, q float64, beyond int) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < beyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, beyond, max(n-rank, 0), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the 0.5-quantile with no sample-count rule, for values
// that are not latency samples (set-up repetitions, per-op counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// request is one open-loop operation: when the schedule said to send
// it, when the generator actually sent it, and when it completed.
// Latency counts from the due time, so a stalled generator or a
// backed-up queue charges its wait to every request behind it.
type request struct {
	due, sent, done time.Time
}

func (r request) latency() time.Duration { return r.done.Sub(r.due) }
func (r request) late() time.Duration    { return r.sent.Sub(r.due) }

// step is one fixed-rate stage of an open-loop run.
type step struct {
	rate    float64   // requests per second
	latMS   []float64 // due-time latency of every acknowledged request
	refused int       // requests rejected or failed
	depth   []int     // queued-request samples taken every millisecond
}

// maxLateMS is how late an open-loop generator may send before its
// run's due-time latencies are flagged as measuring the generator.
const maxLateMS = 5

// maxOverheadPct is how far the traced op p50 may lie from the untraced
// one before the output flags that the layer self times, which add up
// to the traced op, do not add up to the end-to-end p50. It is a flag,
// not a failure: the calibration host's speed alone drifts more than
// this between two passes.
const maxOverheadPct = 5

// sloLimitMS is the p99 latency limit of the serving SLO.
const sloLimitMS = 50

// meetsSLO reports whether a step held the SLO: nothing refused, p99
// within the limit, and no growing backlog — the mean queue depth over
// the step's last quarter is at most one request above the mean over
// its first quarter (a request in flight at the end is not a backlog).
func (s step) meetsSLO(beyond int) bool {
	if s.refused > 0 {
		return false
	}
	p99, err := percentile(s.latMS, 0.99, beyond)
	if err != nil || p99 > sloLimitMS {
		return false
	}
	q := len(s.depth) / 4
	if q == 0 {
		return true
	}
	return meanInt(s.depth[len(s.depth)-q:]) <= meanInt(s.depth[:q])+1
}

// sloRate is the highest step rate that met the SLO, 0 if none did.
func sloRate(steps []step, beyond int) float64 {
	best := 0.0
	for _, s := range steps {
		if s.rate > best && s.meetsSLO(beyond) {
			best = s.rate
		}
	}
	return best
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}

// interval is a closed-open time range [start, end) in nanoseconds
// since the trace began.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other or stick out of the parent;
// only the covered part of the parent counts, once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
		} else if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// spread is the range of repeated measurements as a share of their
// mean.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi, mean := xs[0], xs[0], 0.0
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
		mean += math.Abs(x) / float64(len(xs))
	}
	return ratio(hi-lo, mean)
}
