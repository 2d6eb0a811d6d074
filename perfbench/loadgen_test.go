package main

import (
	"testing"
	"time"
)

// A request that stalls its only connection makes the requests due
// behind it go out late, and their latency — timed from when each was
// due — carries that wait.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	shots := openLoop(5, 100, 1, func(i int, due time.Time) error { // due every 10 ms
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, s := range shots {
		due := time.Duration(i) * 10 * time.Millisecond
		if s.Due != due {
			t.Fatalf("request %d due at %v, want %v", i, s.Due, due)
		}
		if s.Sent < s.Due {
			t.Errorf("request %d sent at %v, before it was due at %v", i, s.Sent, s.Due)
		}
		if i > 0 && s.Sent < shots[i-1].Done {
			t.Errorf("request %d sent at %v while its connection was busy until %v", i, s.Sent, shots[i-1].Done)
		}
	}
	for i := 1; i < 5; i++ {
		// Each request waited at least until the stalled one finished.
		if want := stall - time.Duration(i)*10*time.Millisecond; shots[i].latency() < want {
			t.Errorf("request %d latency %v, want at least %v (the stall it queued behind)", i, shots[i].latency(), want)
		}
		if shots[i].lag() != shots[i].Sent-shots[i].Due {
			t.Errorf("request %d lag %v", i, shots[i].lag())
		}
	}
}

// With a free connection for every request, no request waits on another.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	shots := openLoop(4, 50, 4, func(int, time.Time) error { return nil })
	for i, s := range shots {
		if s.lag() > 15*time.Millisecond {
			t.Errorf("request %d went out %v late with idle connections", i, s.lag())
		}
	}
}

func TestShotLatencyIsFromDue(t *testing.T) {
	s := shot{Due: 10 * time.Millisecond, Sent: 25 * time.Millisecond, Done: 30 * time.Millisecond}
	if s.latency() != 20*time.Millisecond || s.lag() != 15*time.Millisecond {
		t.Fatalf("latency %v lag %v", s.latency(), s.lag())
	}
}
