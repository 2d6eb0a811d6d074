package main

import (
	"runtime"
	"sync"
	"time"
)

// spinWindow is how long before a request is due the pacer stops
// sleeping and polls the clock instead: the runtime's timers can wake a
// sleeping goroutine up to a millisecond late when the process is
// otherwise idle, which would show as lag on sub-millisecond requests.
const spinWindow = time.Millisecond

// shot is one open-loop request's timing, relative to the schedule's
// start. Due is when the schedule wanted it sent, Sent when a client
// connection actually sent it, Done when its last response byte came
// back.
type shot struct {
	Due, Sent, Done time.Duration
	Err             error
}

// latency is the request's time from when it was due, so a request
// that waited behind a stalled one carries that wait.
func (s shot) latency() time.Duration { return s.Done - s.Due }

// lag is how late the generator sent the request.
func (s shot) lag() time.Duration { return s.Sent - s.Due }

// openLoop sends n requests on a fixed schedule, request i being due at
// i/rate after the start, over conns client connections. One pacer
// hands each request, once due, to the next free connection, which
// calls do(i) with the request's due time; while every connection is
// busy, due requests wait, and go out as soon as one frees. openLoop
// returns once every request has finished.
func openLoop(n int, rate float64, conns int, do func(i int, due time.Time) error) []shot {
	shots := make([]shot, n)
	start := time.Now()
	dueAt := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	ready := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				due := dueAt(i)
				sent := time.Since(start)
				err := do(i, start.Add(due))
				shots[i] = shot{Due: due, Sent: sent, Done: time.Since(start), Err: err}
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := dueAt(i)
		if wait := due - time.Since(start); wait > spinWindow {
			time.Sleep(wait - spinWindow)
		}
		for time.Since(start) < due {
			runtime.Gosched()
		}
		ready <- i
	}
	close(ready)
	wg.Wait()
	return shots
}
