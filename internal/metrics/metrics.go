// Package metrics is a stdlib-only, low-overhead metrics registry for the
// solve pipeline: atomic counters, gauges, and bounded histograms with
// Prometheus text-format and JSON exposition. It is the pull-based
// counterpart to the push-based span tracing of internal/obs — a scraper
// can watch a long solve live instead of reading a trace after exit.
//
// Like obs, everything is nil-safe: a nil *Registry hands out nil
// collectors, and every method on a nil collector is a no-op, so
// instrumented code needs no "if metrics enabled" guards and pays one nil
// check when metrics are off.
//
// All collectors are safe for concurrent use (atomic operations on the
// hot paths; the registry lock is only taken at registration and
// exposition time).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches constant key/value pairs to one series of a metric
// family. Two series of the same family are distinguished by their label
// sets.
type Labels map[string]string

// Kind is the exposition type of a metric family.
type Kind int

// Metric kinds, matching the Prometheus exposition TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value. For sources that already
// maintain a cumulative count (the SAT solver's Stats), mirror them with
// delta Adds rather than Set so that fresh solvers (which restart their
// cumulative counters at zero) never make the exported value go backwards.
//
//satlint:nilsafe
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, e.g. the current learnt-DB
// size or the binary search's bounds. The zero value reads as 0; use Set
// with a sentinel (conventionally -1) for "not yet known".
//
//satlint:nilsafe
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a fixed set of buckets with
// inclusive upper bounds (ascending), plus an implicit +Inf bucket, and
// tracks the smallest and largest observation. The bucket layout is fixed
// at registration, so Observe is a binary search over a small slice, a
// few atomic adds, and two atomic loads that only turn into a
// compare-and-swap on a new extreme — cheap enough for per-conflict
// observations like LBD.
//
//satlint:nilsafe
type Histogram struct {
	bounds []int64        // ascending upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, non-cumulative per bucket
	sum    atomic.Int64
	count  atomic.Int64
	// min and max start at the opposite extremes of int64 (see lookup),
	// so the first observation replaces both.
	min, max atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Extremes first: Snapshot reads them last, so every observation it
	// counts is already inside the range it reports.
	for cur := h.min.Load(); v < cur && !h.min.CompareAndSwap(cur, v); cur = h.min.Load() {
	}
	for cur := h.max.Load(); v > cur && !h.max.CompareAndSwap(cur, v); cur = h.max.Load() {
	}
	// Smallest bucket with bound >= v; len(bounds) is the +Inf bucket.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (non-cumulative) and aligned with Bounds; the
// final element of Counts is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
	// Min and Max are the smallest and largest observation (0 while the
	// histogram is empty).
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// ranged marks Min and Max as observed, so Quantile may clamp to
	// them; snapshots assembled by hand from buckets alone lack it.
	ranged bool
}

// Snapshot copies the histogram's current state. The per-bucket counts
// are read without a global lock, so under concurrent Observes the
// snapshot is approximate (each bucket individually consistent).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if lo, hi := h.min.Load(), h.max.Load(); lo <= hi {
		s.Min, s.Max, s.ranged = lo, hi, true
	}
	return s
}

// series is one registered (family, labels) pair.
type series struct {
	labels Labels
	key    string // canonical label serialization, sort/identity key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []int64 // histograms only
	series map[string]*series
}

// Registry holds metric families and renders them. A nil *Registry is a
// valid disabled registry: it hands out nil collectors and renders
// nothing.
//
//satlint:nilsafe
type Registry struct {
	//satlint:lock metrics.registry
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order of family names
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup finds or creates the (family, labels) series. It panics on a
// kind or bucket-layout conflict — re-registering an existing name with a
// different shape is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, kind Kind, bounds []int64, labels Labels) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	key := labelKey(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: labels, key: key}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
			s.h.min.Store(math.MaxInt64)
			s.h.max.Store(math.MinInt64)
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter series for name+labels, creating it on
// first use. labels may be nil. On a nil registry it returns nil (a valid
// no-op counter).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, nil, labels).c
}

// Gauge returns the gauge series for name+labels, creating it on first
// use. On a nil registry it returns nil.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, nil, labels).g
}

// Histogram returns the histogram series for name+labels, creating it on
// first use with the given ascending bucket upper bounds (a +Inf bucket
// is implicit). Later calls for the same family ignore bounds and reuse
// the registered layout. On a nil registry it returns nil.
func (r *Registry) Histogram(name, help string, bounds []int64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s histogram bounds not ascending: %v", name, bounds))
		}
	}
	return r.lookup(name, help, KindHistogram, bounds, labels).h
}

// labelKey canonicalizes a label set: sorted, escaped, Prometheus-style
// `{k="v",...}`; empty labels yield "".
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// labelKeyWith appends one extra pair (the histogram "le") to an existing
// canonical key.
func labelKeyWith(key, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

// snapshotFamilies copies the family/series structure under the lock so
// rendering can proceed without holding it.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.families[name])
	}
	return out
}

// sortedSeries returns a family's series in canonical label order.
func (f *family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, one line per
// series, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			var err error
			switch f.kind {
			case KindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.key, s.c.Value())
			case KindGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.key, s.g.Value())
			case KindHistogram:
				err = writePrometheusHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writePrometheusHistogram(w io.Writer, name string, s *series) error {
	snap := s.h.Snapshot()
	cum := int64(0)
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = strconv.FormatInt(snap.Bounds[i], 10)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelKeyWith(s.key, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, s.key, snap.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.key, snap.Count)
	return err
}

// WriteJSON renders the registry as one JSON object in the spirit of
// expvar: series name (with canonical labels) → value, histograms as
// {bounds, counts, sum, count} objects. Keys are sorted, output is
// indented — meant for humans and ad-hoc tooling, with /metrics as the
// machine interface.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	out := map[string]any{}
	for _, f := range r.snapshotFamilies() {
		for _, s := range f.sortedSeries() {
			key := f.name + s.key
			switch f.kind {
			case KindCounter:
				out[key] = s.c.Value()
			case KindGauge:
				out[key] = s.g.Value()
			case KindHistogram:
				out[key] = s.h.Snapshot()
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
