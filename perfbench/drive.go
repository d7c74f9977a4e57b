package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"recross"
)

// client is the front end a run drives: a BinNode connected to the
// workload's binary listener.
type client interface {
	Lookup(ctx context.Context, s recross.Sample) (*recross.ServeResult, error)
}

// Request states.
const (
	stPending  uint8 = iota // not sent, or not answered yet
	stOK                    // answered, not degraded
	stError                 // the lookup returned an error
	stTimeout               // no answer before the client deadline
	stDegraded              // answered from the functional fallback
	stWrong                 // answer differs from the reference
)

// openLoop sends a pre-generated schedule open-loop: each request leaves at
// its due time on its own goroutine, so a slow answer never delays the
// next send. Latency is timed from the due time, so a stalled sender
// shows up as latency of the requests it delayed.
type openLoop struct {
	in      *inputs
	c       client
	timeout time.Duration
	base    time.Time

	// Per request, indexed like the pool.
	late   []int64 // send minus due, ns
	lat    []int64 // answer minus due, ns
	sentAt []int64 // send, ns since base
	recvAt []int64 // answer, ns since base
	state  []uint8
	hash   []uint64
	res    []reqResult

	inflight atomic.Int64
	wg       sync.WaitGroup

	// onSend, when set, runs on the sender goroutine just before request
	// i is sent.
	onSend func(i int)
}

// reqResult keeps the serving-side fields of an answer.
type reqResult struct {
	queueNs, totalNs int64
	batch            int32
}

func newOpenLoop(in *inputs, c client, timeout time.Duration, base time.Time) *openLoop {
	n := in.pool.len()
	return &openLoop{
		in: in, c: c, timeout: timeout, base: base,
		late: make([]int64, n), lat: make([]int64, n),
		sentAt: make([]int64, n), recvAt: make([]int64, n),
		state: make([]uint8, n), hash: make([]uint64, n),
		res: make([]reqResult, n),
	}
}

// inflightEvery is how often run samples the requests in flight.
const inflightEvery = 25 * time.Millisecond

// run sends ph's requests at their due times and returns when the
// schedule ends; answers may still be in flight. It samples the requests
// in flight every inflightEvery.
func (d *openLoop) run(ph *phase) (inflight []int) {
	start := time.Now()
	next := start
	// wait sleeps until t, taking the in-flight samples that fall due.
	wait := func(t time.Time) {
		for {
			now := time.Now()
			if !now.Before(next) {
				inflight = append(inflight, int(d.inflight.Load()))
				for !next.After(now) {
					next = next.Add(inflightEvery)
				}
			}
			if !now.Before(t) {
				return
			}
			until := t
			if next.Before(until) {
				until = next
			}
			time.Sleep(until.Sub(now))
		}
	}
	for k, off := range ph.due {
		due := start.Add(off)
		wait(due)
		i := ph.first + k
		if d.onSend != nil {
			d.onSend(i)
		}
		d.send(i, due)
	}
	wait(start.Add(ph.dur))
	return inflight
}

func (d *openLoop) send(i int, due time.Time) {
	s := d.in.pool.sample(i)
	now := time.Now()
	d.late[i] = now.Sub(due).Nanoseconds()
	d.sentAt[i] = now.Sub(d.base).Nanoseconds()
	d.inflight.Add(1)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), d.timeout)
		res, err := d.c.Lookup(ctx, s)
		cancel()
		now := time.Now()
		d.lat[i] = now.Sub(due).Nanoseconds()
		d.recvAt[i] = now.Sub(d.base).Nanoseconds()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			d.state[i] = stTimeout
		case err != nil:
			d.state[i] = stError
		case res.Degraded:
			d.state[i] = stDegraded
		default:
			d.hash[i] = hashVectors(res.Vectors)
			d.res[i] = reqResult{
				queueNs: res.QueueWait.Nanoseconds(), totalNs: res.Total.Nanoseconds(),
				batch: int32(res.BatchSize),
			}
			d.state[i] = stOK
		}
		d.inflight.Add(-1)
	}()
}

// drain waits until nothing is in flight or max has passed, and reports
// whether everything was answered.
func (d *openLoop) drain(max time.Duration) bool {
	deadline := time.Now().Add(max)
	for d.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// stats summarizes a drained phase from the in-flight samples run took.
func (d *openLoop) stats(ph *phase, inflight []int) stepStats {
	s := stepStats{Rate: ph.rate, Sent: ph.n()}
	s.BacklogStart, s.BacklogEnd = backlog(inflight)
	if last := ph.first + ph.n() - 1; last > ph.first {
		s.Span = time.Duration(d.sentAt[last] - d.sentAt[ph.first])
	}
	s.Latencies = make([]float64, 0, ph.n())
	for i := ph.first; i < ph.first+ph.n(); i++ {
		if d.state[i] == stOK {
			s.Answered++
			s.Latencies = append(s.Latencies, float64(d.lat[i])/1e6)
		} else {
			s.Failed++
			s.Latencies = append(s.Latencies, math.Inf(1))
		}
	}
	return s
}

// lateMs returns the phase's send lateness in ms, sorted.
func (d *openLoop) lateMs(ph *phase) []float64 {
	out := make([]float64, ph.n())
	for k := range out {
		out[k] = float64(d.late[ph.first+k]) / 1e6
	}
	return sortedCopy(out)
}
