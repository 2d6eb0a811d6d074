package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above the reported tail
// percentile.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the highest percentile of xs that still has at least
// minBeyond samples above it: the sample at sorted rank n-minBeyond-1,
// together with the percentile that rank stands for. ok is false when
// there are too few samples to leave minBeyond beyond any rank.
func tail(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	s := sorted(xs)
	k := len(s) - minBeyond - 1
	if k < 0 {
		return 0, 0, false
	}
	return s[k], 100 * float64(k+1) / float64(len(s)), true
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// segment is the sample count of one segment of a run's latencies: a
// run with at least two segments' worth of samples (serve_hit) reports
// its tail as the lower quartile of the tails taken per segment. Other
// tenants of a shared host lengthen the tail of the seconds they run in
// several-fold, and shorten it by a tenth at most; the lower quartile
// moves only if such episodes cover more than three quarters of the
// run, while a change to the program moves every segment's tail alike.
const segment = 250

// lowerQuartile is the 25th percentile of xs, interpolated between
// sorted ranks; 0 for no samples.
func lowerQuartile(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := float64(len(s)-1) / 4
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// segmentedTail splits xs, in the order they were measured, into
// consecutive segments of at least seg samples, takes each segment's
// tail, and returns the lower quartile of those tails, the percentile
// of the smallest segment's tail, and the number of segments. With
// fewer than 2*seg samples it is tail(xs) over one segment.
func segmentedTail(xs []float64, seg, minBeyond int) (value, pct float64, segments int, ok bool) {
	n := len(xs) / seg
	if n < 2 {
		v, p, ok := tail(xs, minBeyond)
		return v, p, 1, ok
	}
	var tails []float64
	pct = 100
	for i := 0; i < n; i++ {
		v, p, ok := tail(xs[i*len(xs)/n:(i+1)*len(xs)/n], minBeyond)
		if !ok {
			return 0, 0, 0, false
		}
		tails = append(tails, v)
		pct = min(pct, p)
	}
	return lowerQuartile(tails), pct, n, true
}
