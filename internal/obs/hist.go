// Package obs provides the observability primitives threaded through the
// engine: lock-free log-bucketed latency histograms whose recording path is
// allocation-free and contention-striped, snapshot/quantile logic for
// surfacing them through Stats, and a hand-rolled
// Prometheus text renderer for the serving layer's /metrics endpoint.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of power-of-two histogram buckets. Bucket 0
// holds exactly the value 0; bucket b >= 1 holds values in [2^(b-1), 2^b).
// 64 buckets cover the full non-negative int64 range, so a nanosecond
// histogram spans 1ns..292y with factor-of-two resolution.
const NumBuckets = 64

// numStripes spreads concurrent recorders over independent counter sets so
// the hot path is one uncontended atomic add in the common case. Must be a
// power of two.
const numStripes = 8

// stripe is one recorder's worth of counters, padded to its own cache
// lines so stripes never false-share.
type stripe struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	_       [64]byte
}

// Histogram is a lock-free log-bucketed histogram of non-negative int64
// samples (by convention nanoseconds). The zero value is ready to use;
// Record never allocates and never takes a lock, so it is safe on the
// steady-state query path. Concurrent recorders are spread over stripes by
// hashing the sample value (timings are almost never bit-equal, so
// concurrent records rarely share a cache line); Snapshot merges the
// stripes on read.
type Histogram struct {
	stripes [numStripes]stripe
}

// Record adds one sample. Negative samples are clamped to 0.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	// Fibonacci multiplicative hash of the value picks the stripe.
	s := &h.stripes[(uint64(v)*0x9E3779B97F4A7C15)>>(64-3)]
	s.buckets[bits.Len64(uint64(v))&(NumBuckets-1)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordSince records the elapsed time since t0 in nanoseconds.
func (h *Histogram) RecordSince(t0 time.Time) { h.Record(int64(time.Since(t0))) }

// Snapshot merges the stripes into an immutable summary with quantiles
// computed. It is wait-free with respect to recorders; a snapshot taken
// concurrently with records may tear by a sample or two (count/sum/bucket
// reads are independent atomics), which is fine for monitoring reads.
func (h *Histogram) Snapshot() HistStats {
	var st HistStats
	for i := range h.stripes {
		s := &h.stripes[i]
		for b := range s.buckets {
			st.Buckets[b] += s.buckets[b].Load()
		}
		st.Count += s.count.Load()
		st.Sum += time.Duration(s.sum.Load())
		if m := time.Duration(s.max.Load()); m > st.Max {
			st.Max = m
		}
	}
	st.finalize()
	return st
}

// HistStats is a quantile-annotated histogram snapshot: the form
// histograms take inside Stats and over the wire.
// P50/P95/P99 are upper bounds of the bucket containing the quantile, so
// they carry the histogram's factor-of-two resolution.
type HistStats struct {
	Count   int64             `json:"count"`
	Sum     time.Duration     `json:"sum"`
	Max     time.Duration     `json:"max"`
	P50     time.Duration     `json:"p50"`
	P95     time.Duration     `json:"p95"`
	P99     time.Duration     `json:"p99"`
	Buckets [NumBuckets]int64 `json:"buckets"`
}

// finalize recomputes P50/P95/P99 from the bucket counts.
func (s *HistStats) finalize() {
	s.P50 = s.quantile(0.50)
	s.P95 = s.quantile(0.95)
	s.P99 = s.quantile(0.99)
}

// quantile returns the upper bound of the bucket holding the q-quantile
// sample (0 when the histogram is empty).
func (s *HistStats) quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count-1)) + 1 // 1-based rank of the quantile sample
	var cum int64
	for b, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return BucketUpper(b)
		}
	}
	return s.Max
}

// BucketUpper returns the exclusive upper bound of bucket b as a duration
// (bucket 0 holds exactly 0, reported as 0).
func BucketUpper(b int) time.Duration {
	if b == 0 {
		return 0
	}
	if b >= 63 {
		return time.Duration(1<<63 - 1) // saturate instead of overflowing
	}
	return time.Duration(int64(1) << b)
}

// WriteProm renders the snapshot as an unlabeled Prometheus histogram in
// text exposition format: cumulative _bucket series with `le` upper bounds
// in seconds, then _sum and _count. Empty trailing buckets are elided (the
// +Inf bucket always closes the series).
func (s HistStats) WriteProm(w io.Writer, name string) {
	var cum int64
	top := 0
	for b, n := range s.Buckets {
		if n > 0 {
			top = b
		}
	}
	for b := 0; b <= top; b++ {
		cum += s.Buckets[b]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, BucketUpper(b).Seconds(), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum.Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}
