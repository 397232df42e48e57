package metrics

import (
	"math"
	"sort"
	"sync"
)

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observations in
// the snapshot by linear interpolation within the bucket that contains
// the target rank — the same estimator Prometheus' histogram_quantile
// applies server-side, implemented here once so /progress and the load
// generator report the same p99 for the same data.
//
// Rules:
//   - An empty histogram (Count == 0) returns NaN — "no data" must not
//     masquerade as a zero latency.
//   - q is clamped to [0, 1]; q = 0 is the lower edge of the first
//     occupied bucket, q = 1 its last occupied bucket's upper bound.
//   - Within a bucket [lo, hi] the estimate interpolates linearly between
//     the bucket edges by the rank's position among the bucket's
//     observations. The first bucket's lower edge is 0 when its bound is
//     positive (observations are non-negative magnitudes throughout this
//     registry), else the bound itself.
//   - A rank landing in the +Inf overflow bucket returns the largest
//     finite bound — the histogram cannot resolve beyond its layout, and
//     a finite underestimate labeled as such beats a fabricated +Inf. A
//     histogram with observations but no finite buckets returns NaN.
//   - A snapshot of a live histogram carries the observed Min and Max,
//     and the estimate is clamped to [Min, Max]: one 501 ms observation
//     in the (500,1000] bucket reports 501 at every quantile, not a
//     bucket edge no observation reached.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	v := s.bucketQuantile(q)
	if s.ranged && !math.IsNaN(v) {
		v = math.Min(math.Max(v, float64(s.Min)), float64(s.Max))
	}
	return v
}

// bucketQuantile is Quantile's estimate from the buckets alone.
func (s HistogramSnapshot) bucketQuantile(q float64) float64 {
	if s.Count <= 0 || len(s.Counts) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Target rank among 1..Count, conventionally ceil(q·n) with a floor of
	// 1 so q=0 selects the first observation.
	rank := math.Ceil(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		if c <= 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(s.Bounds) {
				// +Inf bucket: report the largest finite bound.
				if len(s.Bounds) == 0 {
					return math.NaN()
				}
				return float64(s.Bounds[len(s.Bounds)-1])
			}
			hi := float64(s.Bounds[i])
			lo := 0.0
			if i > 0 {
				lo = float64(s.Bounds[i-1])
			} else if hi < 0 {
				lo = hi
			}
			// Position of the rank within this bucket's observations.
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	// Unreachable when Count matches the bucket sums; degrade gracefully
	// for approximate snapshots taken under concurrent Observes.
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// Mean returns the arithmetic mean of the snapshot's observations (NaN
// when empty). Exact, since the histogram tracks the raw sum.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count <= 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count)
}

// LabelCap bounds the cardinality of one label dimension: values are
// admitted first-come-first-served up to the cap, and everything after
// collapses to the overflow value, so a misbehaving client cannot mint
// unbounded metric series (each series is live forever in the registry).
// Reserved values — conventionally the "-" unknown marker and the
// overflow value itself — always pass and never consume cap slots.
// Safe for concurrent use; the zero value is unusable, construct with
// NewLabelCap.
type LabelCap struct {
	//satlint:lock metrics.labelcap
	mu       sync.Mutex
	max      int
	overflow string
	reserved map[string]bool
	seen     map[string]bool
}

// NewLabelCap admits up to max distinct values (max <= 0 admits only the
// reserved values), collapsing the rest to overflow. The overflow value
// is implicitly reserved.
func NewLabelCap(max int, overflow string, reserved ...string) *LabelCap {
	c := &LabelCap{
		max:      max,
		overflow: overflow,
		reserved: map[string]bool{overflow: true},
		seen:     map[string]bool{},
	}
	for _, v := range reserved {
		c.reserved[v] = true
	}
	return c
}

// Normalize returns v when it is reserved or within the cardinality
// budget, the overflow value otherwise. A value admitted once stays
// admitted (its series already exists), so Normalize is stable per value
// for the registry's lifetime.
func (c *LabelCap) Normalize(v string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reserved[v] || c.seen[v] {
		return v
	}
	if len(c.seen) >= c.max {
		return c.overflow
	}
	c.seen[v] = true
	return v
}

// Values returns the admitted values plus the reserved ones, sorted — the
// live label universe, for tests and summaries.
func (c *LabelCap) Values() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.seen)+len(c.reserved))
	for v := range c.seen {
		out = append(out, v)
	}
	for v := range c.reserved {
		if !c.seen[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
