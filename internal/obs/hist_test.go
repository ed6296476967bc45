package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the bucket function at the edges: 0 is its own
// bucket, each power of two starts a new bucket, and the largest int64
// lands in the last bucket instead of wrapping.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{1<<62 - 1, 62}, {1 << 62, 63}, {1<<63 - 1, 63},
		{-5, 0}, // negative samples clamp to 0
	}
	for _, c := range cases {
		var h Histogram
		h.Record(c.v)
		st := h.Snapshot()
		if st.Count != 1 {
			t.Fatalf("Record(%d): count = %d", c.v, st.Count)
		}
		for b, n := range st.Buckets {
			want := int64(0)
			if b == c.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Record(%d): bucket[%d] = %d, want %d", c.v, b, n, want)
			}
		}
	}
}

// TestQuantilesAndMax checks the quantile estimates against a known
// distribution: each estimate must be the upper bound of the bucket its
// rank falls in, and Max is exact.
func TestQuantilesAndMax(t *testing.T) {
	var h Histogram
	// 90 fast samples (~1µs bucket), 10 slow ones (~1ms bucket).
	for i := 0; i < 90; i++ {
		h.Record(1000) // bucket 10, upper bound 1024ns
	}
	for i := 0; i < 10; i++ {
		h.Record(1_000_000) // bucket 20, upper bound ~1.05ms
	}
	st := h.Snapshot()
	if st.Count != 100 || st.Max != time.Duration(1_000_000) {
		t.Fatalf("count=%d max=%v", st.Count, st.Max)
	}
	if st.P50 != BucketUpper(10) {
		t.Errorf("p50 = %v, want %v", st.P50, BucketUpper(10))
	}
	if st.P95 != BucketUpper(20) {
		t.Errorf("p95 = %v, want %v", st.P95, BucketUpper(20))
	}
	if st.P99 != BucketUpper(20) {
		t.Errorf("p99 = %v, want %v", st.P99, BucketUpper(20))
	}
	if st.Sum != time.Duration(90*1000+10*1_000_000) {
		t.Errorf("sum = %v", st.Sum)
	}
}

// TestConcurrentRecordParity records a known multiset from many goroutines
// (exercising the stripes under -race) and checks the snapshot is
// bit-identical to a serial recording of the same samples.
func TestConcurrentRecordParity(t *testing.T) {
	const goroutines = 8
	const perG = 10_000
	var shared Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				shared.Record(int64(g*perG+i) * 37 % 2_000_003)
			}
		}(g)
	}
	wg.Wait()

	var serial Histogram
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			serial.Record(int64(g*perG+i) * 37 % 2_000_003)
		}
	}

	want := serial.Snapshot()
	if got := shared.Snapshot(); got != want {
		t.Errorf("concurrent snapshot diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestZeroAllocRecord pins that recording into an armed histogram is
// allocation-free — the contract that lets the query path record latencies
// unconditionally.
func TestZeroAllocRecord(t *testing.T) {
	var h Histogram
	v := int64(12345)
	if allocs := testing.AllocsPerRun(100, func() {
		h.Record(v)
		v = v*31 + 7
	}); allocs != 0 {
		t.Errorf("Record allocated %.1f times per run, want 0", allocs)
	}
}

// TestWriteProm checks the Prometheus rendering: cumulative le buckets, a
// closing +Inf bucket, and sum/count series.
func TestWriteProm(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(3)
	h.Record(3)
	var b strings.Builder
	h.Snapshot().WriteProm(&b, "x_seconds")
	out := b.String()
	for _, want := range []string{
		"x_seconds_bucket{le=\"0\"} 1\n",
		"x_seconds_bucket{le=\"4e-09\"} 3\n",
		"x_seconds_bucket{le=\"+Inf\"} 3\n",
		"x_seconds_sum 6e-09\n",
		"x_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
