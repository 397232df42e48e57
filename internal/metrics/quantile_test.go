package metrics

import (
	"math"
	"sync"
	"testing"
)

// snap builds a snapshot directly — the quantile estimator is pure over
// the snapshot shape, so tests need no registry.
func snap(bounds []int64, counts []int64) HistogramSnapshot {
	var sum, n int64
	for _, c := range counts {
		n += c
	}
	return HistogramSnapshot{Bounds: bounds, Counts: counts, Sum: sum, Count: n}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	ms := []int64{10, 100, 1000} // bucket edges: (0,10] (10,100] (100,1000] (1000,+Inf]
	cases := []struct {
		name string
		s    HistogramSnapshot
		q    float64
		want float64
	}{
		// 100 observations uniformly in the second bucket: p50 lands at
		// rank 50 of 100 → lo + (hi-lo)·(50/100) = 10 + 90·0.5 = 55.
		{"mid-bucket interpolation", snap(ms, []int64{0, 100, 0, 0}), 0.5, 55},
		// Rank 99 of those 100 → 10 + 90·0.99 = 99.1.
		{"p99 same bucket", snap(ms, []int64{0, 100, 0, 0}), 0.99, 99.1},
		// First bucket interpolates from lower edge 0: rank 5 of 10 → 5.
		{"first bucket from zero", snap(ms, []int64{10, 0, 0, 0}), 0.5, 5},
		// Across buckets: 50 in (0,10], 50 in (100,1000]. p25 → rank 25,
		// the 25th of the 50 in the first bucket → 10·(25/50) = 5.
		{"quarter in first bucket", snap(ms, []int64{50, 0, 50, 0}), 0.25, 5},
		// p75 → rank 75, the 25th of the 50 in (100,1000] → 100+900·0.5 = 550.
		{"p75 skips empty bucket", snap(ms, []int64{50, 0, 50, 0}), 0.75, 550},
		// q=0 floors the rank at 1: the 1st of 50 in (0,10] → 10/50 = 0.2.
		{"q0 first observation", snap(ms, []int64{50, 0, 50, 0}), 0, 0.2},
		// q=1 is the last observation's bucket upper bound.
		{"q1 last bucket top", snap(ms, []int64{50, 0, 50, 0}), 1, 1000},
		// Out-of-range q clamps.
		{"q clamps high", snap(ms, []int64{50, 0, 50, 0}), 3, 1000},
		{"q clamps low", snap(ms, []int64{50, 0, 50, 0}), -1, 0.2},
		// Rank in the +Inf overflow bucket: the largest finite bound, not
		// an invented value.
		{"overflow bucket caps at last bound", snap(ms, []int64{0, 0, 0, 10}), 0.5, 1000},
		{"overflow only tail", snap(ms, []int64{90, 0, 0, 10}), 0.99, 1000},
	}
	for _, c := range cases {
		got := c.s.Quantile(c.q)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}

func TestQuantileEmptyAndDegenerate(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty snapshot Quantile = %v, want NaN", got)
	}
	empty := snap([]int64{10, 100}, []int64{0, 0, 0})
	if got := empty.Quantile(0.99); !math.IsNaN(got) {
		t.Fatalf("zero-count snapshot Quantile = %v, want NaN", got)
	}
	// Observations but no finite buckets (everything in +Inf): NaN, the
	// layout carries no magnitude information at all.
	infOnly := snap(nil, []int64{7})
	if got := infOnly.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("inf-only snapshot Quantile = %v, want NaN", got)
	}
	if got := (HistogramSnapshot{}).Mean(); !math.IsNaN(got) {
		t.Fatalf("empty Mean = %v, want NaN", got)
	}
	m := HistogramSnapshot{Sum: 30, Count: 4}
	if got := m.Mean(); got != 7.5 {
		t.Fatalf("Mean = %v, want 7.5", got)
	}
}

// TestQuantileOnLiveHistogram closes the loop through Observe/Snapshot:
// the registry path and the estimator agree on a known distribution.
func TestQuantileOnLiveHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("satalloc_test_latency_ms", "test", []int64{1, 2, 4, 8, 16}, nil)
	for v := int64(1); v <= 16; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 16 observations; p50 → rank 8: bucket (4,8] holds values 5..8
	// (ranks 5..8), so the 4th of its 4 → the bucket's upper edge, 8.
	if got := s.Quantile(0.5); math.Abs(got-8) > 1e-9 {
		t.Fatalf("live p50 = %v, want 8", got)
	}
	if got := s.Quantile(1); got != 16 {
		t.Fatalf("live p100 = %v, want 16", got)
	}
}

func TestLabelCapAdmitsThenCollapses(t *testing.T) {
	c := NewLabelCap(2, "other", "-")
	if got := c.Normalize("-"); got != "-" {
		t.Fatalf("reserved value rewritten to %q", got)
	}
	if got := c.Normalize("a"); got != "a" {
		t.Fatalf("first value = %q", got)
	}
	if got := c.Normalize("b"); got != "b" {
		t.Fatalf("second value = %q", got)
	}
	if got := c.Normalize("c"); got != "other" {
		t.Fatalf("over-cap value = %q, want other", got)
	}
	// Stability: admitted values stay admitted, overflow stays overflow.
	if c.Normalize("a") != "a" || c.Normalize("c") != "other" {
		t.Fatal("Normalize is not stable per value")
	}
	// The overflow value itself always passes and takes no slot.
	if c.Normalize("other") != "other" {
		t.Fatal("overflow value must pass through")
	}
	want := []string{"-", "a", "b", "other"}
	got := c.Values()
	if len(got) != len(want) {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", got, want)
		}
	}
}

func TestLabelCapConcurrent(t *testing.T) {
	c := NewLabelCap(4, "other")
	var wg sync.WaitGroup
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				v := c.Normalize(names[(i+j)%len(names)])
				if v == "" {
					t.Error("empty normalized value")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	vals := c.Values()
	// 4 admitted + "other" reserved.
	if len(vals) != 5 {
		t.Fatalf("admitted %v, want 4 values plus other", vals)
	}
}

// TestQuantileWithinObservedRange: every percentile of a live histogram
// lies inside the observed data, in order. Estimating from the buckets
// alone, one 501 ms observation in the (500,1000] bucket reported 1000 at
// p50, p90 and p99, and three zeros in the (0,1] bucket reported 0.67.
func TestQuantileWithinObservedRange(t *testing.T) {
	cases := []struct {
		name string
		obs  []int64
	}{
		{"single observation", []int64{501}},
		{"all zero", []int64{0, 0, 0}},
		{"spread over buckets", []int64{3, 7, 260, 480, 501, 999}},
		{"overflow bucket", []int64{40, 400000}},
	}
	for _, c := range cases {
		h := New().Histogram("satalloc_test_ms", "test", SolveCallMSBuckets, nil)
		lo, hi := c.obs[0], c.obs[0]
		for _, v := range c.obs {
			h.Observe(v)
			lo, hi = min(lo, v), max(hi, v)
		}
		s := h.Snapshot()
		p50, p90, p99 := s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99)
		if !(float64(lo) <= p50 && p50 <= p90 && p90 <= p99 && p99 <= float64(hi)) {
			t.Errorf("%s: want %d ≤ p50 %v ≤ p90 %v ≤ p99 %v ≤ %d", c.name, lo, p50, p90, p99, hi)
		}
	}
}

// TestHistogramTracksExtremes: Snapshot reports the smallest and largest
// observation, also when they race in from many goroutines; an empty
// histogram reports neither and its quantiles stay NaN.
func TestHistogramTracksExtremes(t *testing.T) {
	h := New().Histogram("satalloc_test_ms", "test", LBDBuckets, nil)
	if s := h.Snapshot(); s.Min != 0 || s.Max != 0 || !math.IsNaN(s.Quantile(0.5)) {
		t.Fatalf("empty snapshot: min %d max %d p50 %v", s.Min, s.Max, s.Quantile(0.5))
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 8; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for v := int64(1); v <= 500; v++ {
				h.Observe(v*8 + g) // 8 … 4007 across all goroutines
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Min != 8 || s.Max != 4007 || s.Count != 4000 {
		t.Fatalf("min %d max %d count %d, want 8, 4007, 4000", s.Min, s.Max, s.Count)
	}
}
