package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates for the diagnostic tail latency, best
// first. p99 is the cap: on a 2-core shared box nothing above it repeats.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it among n samples (choosing-metrics guide §1);
// with fewer than 20 samples it degrades to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest-rank on a sorted copy).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) — the spread rule the driver applies to this
// benchmark's runs, so -aa derives bounds from the same arithmetic.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// blockRate turns completion times (offsets into the measured window) into
// operations per second, robustly: the completions are cut into ten
// equal-count blocks, each block's rate is count / time spanned, and the
// median block wins — so one noisy-neighbour stall on a shared box moves one
// block, not the result. With too few completions it is count / elapsed.
func blockRate(done []time.Duration, window time.Duration) float64 {
	const blocks = 10
	n := len(done)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), done...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := n / blocks
	if k < 5 {
		return float64(n) / window.Seconds()
	}
	rates := make([]float64, 0, blocks)
	prev := time.Duration(0)
	for b := 1; b <= blocks; b++ {
		end := s[b*k-1]
		if span := end - prev; span > 0 {
			rates = append(rates, float64(k)/span.Seconds())
		}
		prev = end
	}
	return median(rates)
}

// medianOf is the median of a latency slice.
func medianOf(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msOf converts a latency slice to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
