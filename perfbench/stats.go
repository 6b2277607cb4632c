package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile; with fewer, the percentile is one or two samples and
// tells nothing about the tail.
const minTail = 10

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// latencySummary is a sample's median and the highest tail percentile
// the sample supports.
type latencySummary struct {
	N     int
	P50   float64 // ms
	P99   float64 // ms; 0 when N < 100*minTail
	TailQ float64
	Tail  float64 // ms at TailQ; 0 when no candidate has minTail samples beyond it
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// beyond counts the samples strictly above the nearest-rank
// q-quantile position.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// summarize computes the median, p99 when at least minTail samples lie
// beyond it, and the highest candidate tail percentile that has
// minTail samples beyond it.
func summarize(ms []float64) latencySummary {
	s := slices.Clone(ms)
	slices.Sort(s)
	out := latencySummary{N: len(s), P50: quantile(s, 0.5)}
	for _, q := range tailQuantiles {
		if beyond(len(s), q) >= minTail {
			out.TailQ, out.Tail = q, quantile(s, q)
			break
		}
	}
	if beyond(len(s), 0.99) >= minTail {
		out.P99 = quantile(s, 0.99)
	}
	return out
}

// median of a small set of measurements (set-up times, per-pass rates).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// maxSegments bounds how many consecutive segments a figure is taken
// over.
const maxSegments = 5

// segmentedP99 splits time-ordered samples into consecutive segments
// of at least 100*minTail samples each (at most maxSegments) and
// returns the median of the segments' p99s and the segment count, or 0
// segments when there are too few samples for one. A transient stall
// of a shared machine then moves one segment, not the figure.
func segmentedP99(ordered []float64) (float64, int) {
	k := min(maxSegments, len(ordered)/(100*minTail))
	if k == 0 {
		return 0, 0
	}
	p99s := make([]float64, k)
	for i := range p99s {
		seg := ordered[i*len(ordered)/k : (i+1)*len(ordered)/k]
		p99s[i] = summarize(seg).P99
	}
	return median(p99s), k
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
