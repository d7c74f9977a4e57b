package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest value with at least a share q of the samples at or below
// it. An empty sample gives NaN.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// supported reports whether n samples leave at least ten beyond the
// q-quantile, the fewest that make a tail percentile worth reporting.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median is the middle of vs (the mean of the two middle values for an
// even count); NaN when empty.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stepStats summarizes one rung of the rate ladder.
type stepStats struct {
	// Rate is the offered arrival rate, requests per second.
	Rate float64
	// Span is the time from the rung's first send to its last.
	Span time.Duration
	// Sent and Failed count the rung's requests; Answered counts the
	// ones answered correctly in time.
	Sent, Failed, Answered int
	// Latencies are the rung's client latencies in ms, timed from each
	// request's due time; failed requests are +Inf.
	Latencies []float64
	// BacklogStart and BacklogEnd are the median requests in flight over
	// the first and the last quarter of the rung.
	BacklogStart, BacklogEnd float64
}

// backlog takes the median of the first and of the last quarter of a
// rung's in-flight samples: a backlog that grows over the rung raises the
// second well above the first, while a short stall in between moves
// neither.
func backlog(inflight []int) (start, end float64) {
	q := len(inflight) / 4
	if q == 0 {
		return 0, 0
	}
	f := func(vs []int) float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = float64(v)
		}
		return median(out)
	}
	return f(inflight[:q]), f(inflight[len(inflight)-q:])
}

// ladderLimits is what a rung must meet to pass.
type ladderLimits struct {
	// P99Ms bounds the rung's p99 latency.
	P99Ms float64
	// FailedFrac bounds the share of failed requests.
	FailedFrac float64
	// BacklogSlack is how many more requests may be in flight at the end
	// of a rung than at its start before the backlog counts as growing;
	// it is at least this many and at least Rate*BacklogSlackS.
	BacklogSlack  int
	BacklogSlackS float64
}

// verdict says whether a rung passed and, if not, why.
func (l ladderLimits) verdict(s stepStats) (bool, string) {
	if s.Sent == 0 {
		return false, "no requests"
	}
	if f := float64(s.Failed) / float64(s.Sent); f > l.FailedFrac {
		return false, "failed share over limit"
	}
	if p99 := percentile(sortedCopy(s.Latencies), 0.99); !(p99 <= l.P99Ms) {
		return false, "p99 over limit"
	}
	slack := l.BacklogSlack
	if v := int(math.Ceil(s.Rate * l.BacklogSlackS)); v > slack {
		slack = v
	}
	if s.BacklogEnd-s.BacklogStart > float64(slack) {
		return false, "backlog growing"
	}
	return true, ""
}

// climb runs the ladder. Rung k is tried (attempt 0) and, if it fails,
// tried once more on a fresh schedule (attempt 1), so a short stall of
// the host does not end the climb by itself; the climb stops at the first
// rung that fails twice. It returns the last attempt at each rung run.
func climb(rungs int, lim ladderLimits, try func(k, attempt int) stepStats) []stepStats {
	var steps []stepStats
	for k := 0; k < rungs; k++ {
		s := try(k, 0)
		if ok, _ := lim.verdict(s); !ok {
			s = try(k, 1)
		}
		steps = append(steps, s)
		if ok, _ := lim.verdict(s); !ok {
			break
		}
	}
	return steps
}

// maxRate returns the index of the highest rung that passes before the
// first failing one (rungs are in ascending rate order), or -1 when the
// lowest rung already fails.
func maxRate(steps []stepStats, l ladderLimits) int {
	best := -1
	for i, s := range steps {
		if ok, _ := l.verdict(s); !ok {
			break
		}
		best = i
	}
	return best
}

// achievedRate is a passing rung's measured throughput: requests answered
// correctly per second between the rung's first and last send.
func achievedRate(s stepStats) float64 {
	if s.Span <= 0 || s.Answered < 2 {
		return 0
	}
	return float64(s.Answered-1) / s.Span.Seconds()
}
