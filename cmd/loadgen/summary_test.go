package main

import (
	"testing"
	"time"
)

// TestSummaryPercentilesExact pins the report's percentiles to the raw
// samples. A histogram-bucket estimate breaks in two ways the cases below
// provoke: samples in the +Inf bucket (beyond the last finite bound, 300 s)
// are reported as that bound, below every sample; and samples filling
// only the low part of a finite bucket are interpolated up toward the
// bucket's upper bound, above every sample. Exact percentiles must lie
// between min and max, in order, and equal the nearest-rank samples.
func TestSummaryPercentilesExact(t *testing.T) {
	for _, tc := range []struct {
		name       string
		base, step time.Duration
	}{
		{"inf-bucket", 301 * time.Second, 100 * time.Millisecond},
		{"low-in-bucket", 501 * time.Millisecond, 100 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCollector(config{})
			sample := func(i int) float64 {
				return float64(tc.base+time.Duration(i)*tc.step) / float64(time.Millisecond)
			}
			for i := 0; i < 1000; i++ {
				c.observe("latency", "acme", tc.base+time.Duration(i)*tc.step)
			}
			s := c.summarize("latency", "acme")
			if s.Count != 1000 {
				t.Fatalf("count %d, want 1000", s.Count)
			}
			chain := []struct {
				name string
				v    float64
			}{
				{"min", s.MinMS}, {"p50", s.P50MS}, {"p90", s.P90MS}, {"p95", s.P95MS},
				{"p99", s.P99MS}, {"p999", s.P999MS}, {"max", s.MaxMS},
			}
			for i := 1; i < len(chain); i++ {
				if chain[i-1].v > chain[i].v {
					t.Fatalf("%s %.1f > %s %.1f: %+v", chain[i-1].name, chain[i-1].v, chain[i].name, chain[i].v, s)
				}
			}
			// Nearest rank over 1000 samples: p50 is the 500th sample,
			// p999 the 999th.
			for _, chk := range []struct {
				name      string
				got, want float64
			}{
				{"min", s.MinMS, sample(0)}, {"p50", s.P50MS, sample(499)},
				{"p999", s.P999MS, sample(998)}, {"max", s.MaxMS, sample(999)},
			} {
				if chk.got != chk.want {
					t.Errorf("%s = %.3f, want %.3f", chk.name, chk.got, chk.want)
				}
			}
		})
	}
}

// TestNearestRank checks the rank arithmetic at the edges.
func TestNearestRank(t *testing.T) {
	one := []float64{7}
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := nearestRank(one, q); got != 7 {
			t.Errorf("single sample q=%v: %v, want 7", q, got)
		}
	}
	four := []float64{1, 2, 3, 4}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.25, 1}, {0.5, 2}, {0.51, 3}, {0.999, 4}, {1, 4}} {
		if got := nearestRank(four, tc.q); got != tc.want {
			t.Errorf("q=%v: %v, want %v", tc.q, got, tc.want)
		}
	}
}
