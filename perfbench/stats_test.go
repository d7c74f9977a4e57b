package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"recross"
)

func TestPercentileNearestRank(t *testing.T) {
	var vs []float64
	for i := 100; i >= 1; i-- {
		vs = append(vs, float64(i))
	}
	s := sortedCopy(vs)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.995, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("single sample p99 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must give NaN")
	}
	// A failed request is +Inf: 2 failures in 100 put p99 beyond any limit,
	// 1 does not.
	two := append(sortedCopy(vs[:98]), math.Inf(1), math.Inf(1))
	if !math.IsInf(percentile(sortedCopy(two), 0.99), 1) {
		t.Error("2% failures must put p99 at +Inf")
	}
	one := append(sortedCopy(vs[:99]), math.Inf(1))
	if math.IsInf(percentile(sortedCopy(one), 0.99), 1) {
		t.Error("1% failures must leave p99 finite")
	}
	if !supported(1000, 0.99) || supported(999, 0.99) {
		t.Error("p99 needs at least ten samples beyond it: 1000 samples")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{5, 1, 3}) != 3 {
		t.Error("median")
	}
}

// rung builds a synthetic rung of n requests at the given latency (ms),
// with failed of them failed and the backlog moving from start to end.
func rung(rate float64, n int, latMs float64, failed int, start, end float64) stepStats {
	s := stepStats{Rate: rate, Span: time.Second, Sent: n, BacklogStart: start, BacklogEnd: end}
	for i := 0; i < n; i++ {
		if i < failed {
			s.Failed++
			s.Latencies = append(s.Latencies, math.Inf(1))
			continue
		}
		s.Answered++
		s.Latencies = append(s.Latencies, latMs)
	}
	return s
}

func TestLadderVerdicts(t *testing.T) {
	lim := ladderLimits{P99Ms: 50, FailedFrac: 0.001, BacklogSlack: 32, BacklogSlackS: 0.01}
	cases := []struct {
		name string
		s    stepStats
		ok   bool
	}{
		{"healthy", rung(1000, 1000, 5, 0, 4, 6), true},
		{"p99 over limit", rung(1000, 1000, 60, 0, 4, 6), false},
		{"failures over limit", rung(1000, 1000, 5, 2, 4, 6), false},
		{"one failure in a thousand", rung(1000, 1000, 5, 1, 4, 6), true},
		{"backlog growing", rung(1000, 1000, 5, 0, 40, 120), false},
		{"backlog within slack", rung(1000, 1000, 5, 0, 40, 72), true},
		{"slack scales with rate", rung(5000, 5000, 5, 0, 40, 85), true},
		{"empty rung", stepStats{Rate: 1000}, false},
	}
	for _, c := range cases {
		if ok, why := lim.verdict(c.s); ok != c.ok {
			t.Errorf("%s: verdict %v (%s), want %v", c.name, ok, why, c.ok)
		}
	}

	steps := []stepStats{
		rung(800, 800, 5, 0, 3, 3),
		rung(900, 900, 6, 0, 3, 4),
		rung(1000, 1000, 5, 0, 30, 200), // backlog grows: capacity reached
		rung(1100, 1100, 5, 0, 3, 3),    // a later pass does not count
	}
	if got := maxRate(steps, lim); got != 1 {
		t.Fatalf("maxRate = %d, want 1", got)
	}
	if got := maxRate(steps[2:], lim); got != -1 {
		t.Fatalf("maxRate with a failing first rung = %d, want -1", got)
	}
	if got := achievedRate(steps[1]); math.Abs(got-899) > 1e-9 {
		t.Fatalf("achievedRate = %v, want 899 (899 gaps over a 1 s span)", got)
	}
}

func TestClimbRetriesOnce(t *testing.T) {
	lim := ladderLimits{P99Ms: 50, FailedFrac: 0.001, BacklogSlack: 32, BacklogSlackS: 0.01}
	// Rung 1 stalls once, then passes on its retry; rung 3 is past
	// capacity and fails both attempts, which ends the climb.
	var tried []string
	steps := climb(6, lim, func(k, a int) stepStats {
		tried = append(tried, fmt.Sprintf("%d/%d", k, a))
		rate := 1000 + 100*float64(k)
		if (k == 1 && a == 0) || k >= 3 {
			return rung(rate, 1000, 80, 0, 4, 6)
		}
		return rung(rate, 1000, 5, 0, 4, 6)
	})
	if got, want := strings.Join(tried, " "), "0/0 1/0 1/1 2/0 3/0 3/1"; got != want {
		t.Fatalf("attempts %q, want %q", got, want)
	}
	if len(steps) != 4 || maxRate(steps, lim) != 2 {
		t.Fatalf("%d steps, maxRate %d; want 4 steps and rung 2", len(steps), maxRate(steps, lim))
	}
	if ok, _ := lim.verdict(steps[1]); !ok {
		t.Fatal("rung 1 must report its passing retry")
	}
}

func TestBacklogQuarters(t *testing.T) {
	// A backlog that grows steadily: the last quarter sits well above the
	// first.
	var grow []int
	for i := 0; i < 40; i++ {
		grow = append(grow, 5+4*i)
	}
	if s, e := backlog(grow); s != 23 || e != 143 {
		t.Fatalf("growing backlog quarters %v -> %v, want 23 -> 143", s, e)
	}
	// A short stall in the last quarter (two samples of 40) moves neither
	// median.
	flat := make([]int, 40)
	for i := range flat {
		flat[i] = 6
	}
	flat[33], flat[34] = 180, 90
	if s, e := backlog(flat); s != 6 || e != 6 {
		t.Fatalf("stalled but flat backlog quarters %v -> %v, want 6 -> 6", s, e)
	}
	if s, e := backlog([]int{1, 2}); s != 0 || e != 0 {
		t.Fatal("too few samples must read as no backlog")
	}
	lim := ladderLimits{P99Ms: 50, FailedFrac: 0.001, BacklogSlack: 32, BacklogSlackS: 0.01}
	st := rung(1000, 1000, 5, 0, 0, 0)
	st.BacklogStart, st.BacklogEnd = backlog(grow)
	if ok, _ := lim.verdict(st); ok {
		t.Fatal("a growing backlog must fail the rung")
	}
	st.BacklogStart, st.BacklogEnd = backlog(flat)
	if ok, why := lim.verdict(st); !ok {
		t.Fatalf("a short stall failed the rung: %s", why)
	}
}

// instantClient answers every lookup at once.
type instantClient struct{}

func (instantClient) Lookup(ctx context.Context, s recross.Sample) (*recross.ServeResult, error) {
	return &recross.ServeResult{Vectors: [][]float32{{1}}}, nil
}

// TestLatencyFromDueUnderStalledSender stalls the sender for 40 ms before
// its second request. The requests the stall delays must report latency
// from their due times, not from when they were finally sent.
func TestLatencyFromDueUnderStalledSender(t *testing.T) {
	p := newPool()
	for i := 0; i < 5; i++ {
		p.add(recross.Sample{{Table: 0, Indices: []int64{int64(i)}, Weights: []float32{1}}})
	}
	ph := &phase{name: "p", rate: 100, dur: 60 * time.Millisecond, due: []time.Duration{
		0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond,
	}}
	in := &inputs{pool: p, phases: []*phase{ph}}
	d := newOpenLoop(in, instantClient{}, time.Second, time.Now())
	const stall = 40 * time.Millisecond
	d.onSend = func(i int) {
		if i == 1 {
			time.Sleep(stall)
		}
	}
	d.run(ph)
	if !d.drain(time.Second) {
		t.Fatal("requests still in flight")
	}
	// The stall ends about 10+40 = 50 ms into the phase: request k (due at
	// 10k ms for k<4) is answered no earlier than that.
	for k := 1; k <= 3; k++ {
		want := 50*time.Millisecond - ph.due[k]
		lat := time.Duration(d.lat[k])
		if lat < want-2*time.Millisecond {
			t.Errorf("request %d: latency %v, want at least %v from its due time", k, lat, want)
		}
		if late := time.Duration(d.late[k]); late < want-2*time.Millisecond {
			t.Errorf("request %d: lateness %v, want at least %v", k, late, want)
		}
		// The answer itself is instant: latency is lateness plus a little.
		if lat-time.Duration(d.late[k]) > 5*time.Millisecond {
			t.Errorf("request %d: latency %v is not timed from due (late %v)", k, lat, time.Duration(d.late[k]))
		}
	}
	if time.Duration(d.lat[0]) > 5*time.Millisecond {
		t.Errorf("request 0 before the stall: latency %v", time.Duration(d.lat[0]))
	}
	s := d.stats(ph, nil)
	if s.Answered != 5 || s.Failed != 0 {
		t.Fatalf("answered %d failed %d", s.Answered, s.Failed)
	}
	// p99 of the phase is the worst delayed request, about 40 ms.
	if p99 := percentile(sortedCopy(s.Latencies), 0.99); p99 < 38 {
		t.Errorf("p99 %v ms hides the stall", p99)
	}
}

func TestPoolRoundTrip(t *testing.T) {
	gen, err := recross.NewGenerator(recross.CriteoKaggle(16, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	p := newPool()
	var want []recross.Sample
	for i := 0; i < 20; i++ {
		s := gen.Sample()
		want = append(want, s)
		p.add(s)
	}
	for i, s := range want {
		if fingerprint(p.sample(i)) != fingerprint(s) {
			t.Fatalf("sample %d changed in the pool", i)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the result line and
// BENCHMARK.json in step.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	names := map[string]bool{}
	for _, w := range workloads() {
		names[w.name] = true
	}
	for _, w := range bj.Workloads {
		if !names[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
}
