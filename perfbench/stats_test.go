package main

import (
	"slices"
	"testing"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100, 99, ..., 1
	}
	v, pct, ok := tail(xs, 10)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v (p%v, ok=%t), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
}

func TestTailPercentileFollowsSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{{11, 100.0 / 11}, {20, 50}, {50, 80}, {1000, 99}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, pct, ok := tail(xs, 10)
		if !ok || pct != tc.wantPct || v != float64(tc.n-11) {
			t.Errorf("n=%d: tail %v at p%v (ok=%t), want %v at p%v", tc.n, v, pct, ok, tc.n-11, tc.wantPct)
		}
	}
}

func TestTailNeedsMoreSamplesThanItLeavesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10), 10); ok {
		t.Fatal("tail of 10 samples reported ok; no rank has 10 samples beyond it")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median() = %v", m)
	}
}

func TestLowerQuartile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 7}, {[]float64{5, 1, 9, 3, 7}, 3}, {[]float64{4, 3, 2, 1}, 1.75}} {
		if got := lowerQuartile(tc.xs); got != tc.want {
			t.Errorf("lowerQuartile(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// episodes builds nine segments of 250 samples, each 0..249 plus
// shift; the segments listed in slow are slowed by another 1e6, as by
// an episode of interference from other tenants.
func episodes(shift float64, slow ...int) []float64 {
	var xs []float64
	for s := 0; s < 9; s++ {
		extra := shift
		if slices.Contains(slow, s) {
			extra += 1e6
		}
		for i := 0; i < 250; i++ {
			xs = append(xs, float64(i)+extra)
		}
	}
	return xs
}

func TestSegmentedTailIgnoresEpisodesInAFewSegments(t *testing.T) {
	// Six of nine segments slowed: the lower quartile (rank 2 of 9) is
	// still a quiet segment's tail (rank 239 of 0..249).
	v, pct, n, ok := segmentedTail(episodes(0, 1, 2, 4, 5, 7, 8), 250, 10)
	if !ok || n != 9 || pct != 96 || v != 239 {
		t.Fatalf("segmentedTail = %v p%v over %d segments (ok=%t), want 239 at p96 over 9", v, pct, n, ok)
	}
	// Seven of nine: now it is a slowed one.
	if v, _, _, _ := segmentedTail(episodes(0, 1, 2, 3, 4, 5, 7, 8), 250, 10); v != 239+1e6 {
		t.Fatalf("segmentedTail with seven slowed segments = %v, want %v", v, 239+1e6)
	}
}

func TestSegmentedTailFollowsAChangeToEverySegment(t *testing.T) {
	// A program change slows every request by 100: the tail moves by
	// exactly that, episode or not.
	if v, _, _, _ := segmentedTail(episodes(100, 3), 250, 10); v != 339 {
		t.Fatalf("after +100 everywhere: tail %v, want 339", v)
	}
}

func TestSegmentedTailFallsBackToOneSegment(t *testing.T) {
	xs := make([]float64, 499)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, pct, n, ok := segmentedTail(xs, 250, 10)
	wantV, wantPct, _ := tail(xs, 10)
	if !ok || n != 1 || v != wantV || pct != wantPct {
		t.Fatalf("segmentedTail = %v p%v over %d segments, want tail %v p%v", v, pct, n, wantV, wantPct)
	}
}
