package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one open-loop request: when it is due, counted from the
// phase start, and which request it sends.
type arrival struct {
	due  time.Duration
	item int
}

// poissonSchedule draws Poisson arrivals at rate per second over d: the
// gaps are exponential, and pick chooses each arrival's request. The same
// rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, pick func() int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, item: pick()})
	}
}

// outcome is one request's fate as the generator saw it.
type outcome struct {
	traced   bool    // sent while the run was tracing
	latency  float64 // ms from the due time to the checked response
	late     float64 // ms the send started after the due time
	err      error   // transport error or non-2xx status
	mismatch string  // wrong response bytes
}

func (o outcome) ok() bool { return o.err == nil && o.mismatch == "" }

// sendFunc sends item i, due at due, as request req and reports the
// outcome.
type sendFunc func(i int, due time.Time, req int64) outcome

// openLoop sends the schedule at its due times over at most conns
// connections. Requests due while every connection is busy wait in the
// generator's queue; their wait shows as lateness and in the latency,
// which is timed from the due time.
func openLoop(sched []arrival, conns int, reqBase int64, send sendFunc) []outcome {
	out := make([]outcome, len(sched))
	queue := make(chan int, len(sched)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i] = send(sched[i].item, start.Add(sched[i].due), reqBase+int64(i)+1)
			}
		}()
	}
	for i, a := range sched {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop runs conns clients that each send the next request of seq as
// soon as their previous one completes, until d has passed or seq runs
// out. It returns the outcomes and the time until the last completion.
func closedLoop(seq []int, conns int, d time.Duration, reqBase int64, send sendFunc) ([]outcome, time.Duration) {
	var next atomic.Int64
	per := make([][]outcome, conns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(seq)) {
					return
				}
				per[c] = append(per[c], send(seq[i], time.Now(), reqBase+i+1))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []outcome
	for _, o := range per {
		out = append(out, o...)
	}
	return out, elapsed
}

// latencies returns each outcome's latency in ms, +Inf for a failed one:
// a failed or refused request misses any limit.
func latencies(outs []outcome) []float64 {
	ls := make([]float64, len(outs))
	for i, o := range outs {
		ls[i] = o.latency
		if !o.ok() {
			ls[i] = math.Inf(1)
		}
	}
	return ls
}
