// Command loadgen is the allocation daemon's load generator: it pushes a
// workgen-style stream of jobs at a live allocd over HTTP at a fixed
// open-loop rate and records exact per-job latencies client-side.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 [-jobs 1000] [-rate 100]
//	        [-tenant-mix "acme:3,globex:1"] [-kind ring] [-ecus 2]
//	        [-tasks 4] [-seed 1] [-job-timeout 60s] [-out LOAD.json]
//
// Arrivals are open-loop: submissions fire on the rate clock regardless
// of how many earlier jobs are still in flight, so the daemon's
// admission control (429 queue-full, 503 draining) is exercised rather
// than hidden — shed submissions are counted, not retried. Each accepted
// job is polled to its terminal state; the recorded latency is
// submit-to-terminal as the client observed it, and the first poll that
// shows an anytime incumbent stamps the client-observed
// time-to-first-feasible.
//
// The report (one JSON document, default LOAD_<yyyymmdd>.json) carries
// per-tenant latency and convergence percentiles (exact p50/p90/p95/p99/
// p999 by nearest rank, plus min/mean/max, all from the raw samples),
// throughput, and shed/error rates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"satalloc/internal/core"
	"satalloc/internal/metrics"
	"satalloc/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running allocd (e.g. http://127.0.0.1:8080); required")
	jobs := flag.Int("jobs", 1000, "total submissions to fire")
	rate := flag.Float64("rate", 100, "open-loop arrival rate in submissions per second")
	tenantMix := flag.String("tenant-mix", "loadgen", `weighted tenant rotation, e.g. "acme:3,globex:1"`)
	kind := flag.String("kind", "ring", "instance kind (ring varies per job via seed+i; fixed kinds repeat and mostly hit the result cache)")
	ecus := flag.Int("ecus", 2, "ECU count for -kind ring")
	tasks := flag.Int("tasks", 4, "task count for -kind ring")
	seed := flag.Int64("seed", 1, "base generator seed; job i uses seed+i")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job client-side wait budget after acceptance")
	out := flag.String("out", "", "report path (default LOAD_<yyyymmdd>.json)")
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		os.Exit(2)
	}
	mix, err := parseTenantMix(*tenantMix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	if *jobs < 1 || *rate <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -jobs must be >= 1 and -rate > 0")
		os.Exit(2)
	}
	cfg := config{
		addr: strings.TrimRight(*addr, "/"), jobs: *jobs, rate: *rate,
		mix: mix, kind: *kind, ecus: *ecus, tasks: *tasks, seed: *seed,
		jobTimeout: *jobTimeout,
		logf:       func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("LOAD_%s.json", time.Now().Format("20060102"))
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "loadgen: report written to %s\n", path)
}

// parseTenantMix expands "name:weight,name:weight" into the flat
// rotation submissions cycle through (the same deterministic weighted
// round-robin as workgen -tenant-mix: "a:3,b:1" → [a a a b]).
func parseTenantMix(spec string) ([]string, error) {
	if spec == "" {
		return []string{"loadgen"}, nil
	}
	var mix []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("-tenant-mix %q has an empty entry", spec)
		}
		name, weight := part, 1
		if j := strings.LastIndexByte(part, ':'); j >= 0 {
			if _, err := fmt.Sscanf(part[j+1:], "%d", &weight); err != nil || weight < 1 {
				return nil, fmt.Errorf("-tenant-mix entry %q: weight must be a positive integer", part)
			}
			name = part[:j]
		}
		if name == "" {
			return nil, fmt.Errorf("-tenant-mix entry %q has an empty tenant name", part)
		}
		for k := 0; k < weight; k++ {
			mix = append(mix, name)
		}
	}
	return mix, nil
}

type config struct {
	addr       string
	jobs       int
	rate       float64
	mix        []string
	kind       string
	ecus       int
	tasks      int
	seed       int64
	jobTimeout time.Duration
	logf       func(format string, args ...any)
}

// Report is the LOAD_<date>.json document.
type Report struct {
	Date       string  `json:"date"`
	Addr       string  `json:"addr"`
	Kind       string  `json:"kind"`
	Jobs       int     `json:"jobs"`
	TargetRate float64 `json:"targetRatePerSec"`

	DurationMS int64 `json:"durationMs"`
	// Throughput is completed jobs per second of wall clock.
	Throughput float64 `json:"throughputPerSec"`
	Submitted  int64   `json:"submitted"` // accepted (202) or answered from cache (200)
	Completed  int64   `json:"completed"` // reached a terminal state within the job timeout
	CacheHits  int64   `json:"cacheHits"`
	Shed       int64   `json:"shed"`   // 429/503 rejections
	Errors     int64   `json:"errors"` // transport failures, 5xx, client-side timeouts
	ShedRate   float64 `json:"shedRate"`
	ErrorRate  float64 `json:"errorRate"`

	// Outcomes counts terminal verdicts ("optimal", "feasible", …) plus
	// "cache_hit" and "timeout" (client gave up waiting).
	Outcomes map[string]int64 `json:"outcomes"`

	// Tenants maps each tenant of the mix to its latency and convergence
	// summaries.
	Tenants map[string]*TenantReport `json:"tenants"`
}

// TenantReport is one tenant's slice of the run.
type TenantReport struct {
	Jobs      int64 `json:"jobs"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Errors    int64 `json:"errors"`
	// Latency is submit-to-terminal; FirstFeasible and Optimal are the
	// client-observed convergence curve (first poll showing an incumbent,
	// and terminal optimal verdicts, respectively).
	Latency       *LatencySummary `json:"latencyMs,omitempty"`
	FirstFeasible *LatencySummary `json:"firstFeasibleMs,omitempty"`
	Optimal       *LatencySummary `json:"timeToOptimalMs,omitempty"`
}

// LatencySummary reports a latency distribution in milliseconds, exactly,
// from the raw client-side samples: min/mean/max, and nearest-rank
// percentiles, so min ≤ p50 ≤ … ≤ p999 ≤ max always holds (a bucket
// estimate could exceed the largest sample).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MinMS  float64 `json:"min"`
	MeanMS float64 `json:"mean"`
	MaxMS  float64 `json:"max"`
	P50MS  float64 `json:"p50"`
	P90MS  float64 `json:"p90"`
	P95MS  float64 `json:"p95"`
	P99MS  float64 `json:"p99"`
	P999MS float64 `json:"p999"`
}

// outcome of one submission, aggregated under collect's lock.
type jobOutcome struct {
	tenant        string
	status        string // terminal verdict, "cache_hit", "shed", "error", "timeout"
	latency       time.Duration
	firstFeasible time.Duration // 0 = never observed
	completed     bool
}

// collector folds job outcomes into per-tenant raw samples and the
// shared-estimator histograms.
type collector struct {
	//satlint:lock loadgen.collector
	mu  sync.Mutex
	reg *metrics.Registry
	raw map[string]map[string][]float64 // family → tenant → raw ms samples
	rep *Report
}

func newCollector(cfg config) *collector {
	return &collector{
		reg: metrics.New(),
		raw: map[string]map[string][]float64{"latency": {}, "first_feasible": {}, "optimal": {}},
		rep: &Report{
			Addr: cfg.addr, Kind: cfg.kind, Jobs: cfg.jobs, TargetRate: cfg.rate,
			Outcomes: map[string]int64{},
			Tenants:  map[string]*TenantReport{},
		},
	}
}

func (c *collector) tenant(t string) *TenantReport {
	tr := c.rep.Tenants[t]
	if tr == nil {
		tr = &TenantReport{}
		c.rep.Tenants[t] = tr
	}
	return tr
}

// histogram returns the tenant-labeled series backing one latency family.
// The three families mirror the daemon's server-side phase histograms,
// measured from the client's side of the wire.
func (c *collector) histogram(family, tenant string) *metrics.Histogram {
	switch family {
	case "latency":
		return c.reg.Histogram("satalloc_loadgen_latency_ms",
			"client-observed submit-to-terminal job latency in milliseconds", metrics.SolveCallMSBuckets, metrics.Labels{"tenant": tenant})
	case "first_feasible":
		return c.reg.Histogram("satalloc_loadgen_first_feasible_ms",
			"client-observed submit-to-first-incumbent latency in milliseconds", metrics.SolveCallMSBuckets, metrics.Labels{"tenant": tenant})
	default:
		return c.reg.Histogram("satalloc_loadgen_optimal_ms",
			"client-observed submit-to-proven-optimal latency in milliseconds", metrics.SolveCallMSBuckets, metrics.Labels{"tenant": tenant})
	}
}

func (c *collector) observe(family, tenant string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	c.histogram(family, tenant).Observe(int64(math.Round(ms)))
	byTenant := c.raw[family]
	byTenant[tenant] = append(byTenant[tenant], ms)
}

func (c *collector) add(o jobOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := c.tenant(o.tenant)
	tr.Jobs++
	switch o.status {
	case "shed":
		c.rep.Shed++
		tr.Shed++
		return
	case "error":
		c.rep.Errors++
		tr.Errors++
		return
	case "cache_hit":
		c.rep.CacheHits++
	}
	c.rep.Submitted++
	c.rep.Outcomes[o.status]++
	if !o.completed {
		c.rep.Errors++
		tr.Errors++
		return
	}
	c.rep.Completed++
	tr.Completed++
	c.observe("latency", o.tenant, o.latency)
	if o.firstFeasible > 0 {
		c.observe("first_feasible", o.tenant, o.firstFeasible)
	}
	if o.status == "optimal" {
		c.observe("optimal", o.tenant, o.latency)
	}
}

// summarize converts one family's samples for one tenant into a
// LatencySummary, or nil when the tenant produced none.
func (c *collector) summarize(family, tenant string) *LatencySummary {
	raw := c.raw[family][tenant]
	if len(raw) == 0 {
		return nil
	}
	sort.Float64s(raw)
	s := &LatencySummary{
		Count:  int64(len(raw)),
		MinMS:  raw[0],
		MaxMS:  raw[len(raw)-1],
		P50MS:  nearestRank(raw, 0.50),
		P90MS:  nearestRank(raw, 0.90),
		P95MS:  nearestRank(raw, 0.95),
		P99MS:  nearestRank(raw, 0.99),
		P999MS: nearestRank(raw, 0.999),
	}
	var sum float64
	for _, v := range raw {
		sum += v
	}
	s.MeanMS = sum / float64(len(raw))
	return s
}

// nearestRank returns the q-quantile of ascending samples by the
// nearest-rank method: the smallest sample with at least a q share of the
// samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (c *collector) finish(wall time.Duration) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.Date = time.Now().Format("2006-01-02")
	c.rep.DurationMS = wall.Milliseconds()
	if sec := wall.Seconds(); sec > 0 {
		c.rep.Throughput = float64(c.rep.Completed) / sec
	}
	total := float64(c.rep.Jobs)
	c.rep.ShedRate = float64(c.rep.Shed) / total
	c.rep.ErrorRate = float64(c.rep.Errors) / total
	for tenant, tr := range c.rep.Tenants {
		tr.Latency = c.summarize("latency", tenant)
		tr.FirstFeasible = c.summarize("first_feasible", tenant)
		tr.Optimal = c.summarize("optimal", tenant)
	}
	return c.rep
}

// run fires the open-loop stream and blocks until every submission has
// settled (terminal, shed, errored, or client-timed-out).
func run(cfg config) (*Report, error) {
	specs, err := buildSpecs(cfg)
	if err != nil {
		return nil, err
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: 512, MaxIdleConnsPerHost: 512,
		},
	}
	col := newCollector(cfg)
	interval := time.Duration(float64(time.Second) / cfg.rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}

	distinct := map[string]bool{}
	for _, t := range cfg.mix {
		distinct[t] = true
	}
	cfg.logf("loadgen: %d jobs at %.1f/s against %s (%d tenants)",
		cfg.jobs, cfg.rate, cfg.addr, len(distinct))
	start := time.Now()
	var wg sync.WaitGroup
	next := start
	for i := 0; i < cfg.jobs; i++ {
		// Open loop: fire on the arrival schedule, never on completions.
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			col.add(oneJob(client, cfg, specs[i], cfg.mix[i%len(cfg.mix)]))
		}(i)
		if (i+1)%500 == 0 {
			cfg.logf("loadgen: %d/%d submitted", i+1, cfg.jobs)
		}
	}
	wg.Wait()
	return col.finish(time.Since(start)), nil
}

// buildSpecs pre-marshals every submission body so generation time never
// leaks into the measured latencies. Ring instances vary per job via
// seed+i; fixed kinds repeat (exercising the daemon's result cache).
func buildSpecs(cfg config) ([][]byte, error) {
	specs := make([][]byte, cfg.jobs)
	for i := 0; i < cfg.jobs; i++ {
		o := workload.T43Options()
		o.Seed = cfg.seed + int64(i)
		o.Tasks = cfg.tasks
		o.Chains = cfg.tasks / 4
		o.Restricted = cfg.tasks / 8
		o.SeparatedPairs = cfg.tasks / 16
		o.ForcedRemoteChains = o.Chains / 2
		var sp *core.Spec
		switch cfg.kind {
		case "ring":
			sp = core.ToSpec(workload.Populate(workload.RingArchitecture(cfg.ecus), o))
		case "t43":
			sp = core.ToSpec(workload.T43())
		case "archA":
			sp = core.ToSpec(workload.HierarchicalT43(workload.ArchitectureA()))
		default:
			return nil, fmt.Errorf("unknown kind %q (want ring, t43, or archA)", cfg.kind)
		}
		if sp.Meta == nil {
			sp.Meta = map[string]string{}
		}
		sp.Meta["generator"] = "loadgen"
		sp.Meta["tenant"] = cfg.mix[i%len(cfg.mix)]
		sp.Meta["index"] = fmt.Sprint(i)
		b, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		specs[i] = b
	}
	return specs, nil
}

// wire mirrors the daemon's Status JSON, trimmed to what loadgen reads.
type wire struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	BoundUpper int64  `json:"boundUpper"`
	CacheHit   bool   `json:"cacheHit"`
	Result     *struct {
		Status string `json:"status"`
	} `json:"result"`
}

// oneJob submits one spec and follows it to a terminal state, measuring
// everything from the client's side of the wire.
func oneJob(client *http.Client, cfg config, spec []byte, tenant string) jobOutcome {
	out := jobOutcome{tenant: tenant}
	t0 := time.Now()
	resp, err := client.Post(cfg.addr+"/jobs", "application/json", strings.NewReader(string(spec)))
	if err != nil {
		out.status = "error"
		return out
	}
	var st wire
	decodeErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		out.status = "shed"
		return out
	case resp.StatusCode == http.StatusOK && st.CacheHit:
		out.status = "cache_hit"
		out.latency = time.Since(t0)
		out.completed = true
		return out
	case resp.StatusCode != http.StatusAccepted || decodeErr != nil || st.ID == "":
		out.status = "error"
		return out
	}

	deadline := t0.Add(cfg.jobTimeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(cfg.addr + "/jobs/" + st.ID)
		if err != nil {
			out.status = "error"
			return out
		}
		var cur wire
		decodeErr := json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decodeErr != nil {
			out.status = "error"
			return out
		}
		if out.firstFeasible == 0 && (cur.BoundUpper >= 0 || cur.Result != nil) {
			out.firstFeasible = time.Since(t0)
		}
		switch cur.State {
		case "done", "cancelled", "failed":
			out.latency = time.Since(t0)
			out.completed = true
			out.status = cur.State
			if cur.State == "done" && cur.Result != nil {
				out.status = cur.Result.Status
			}
			return out
		}
		time.Sleep(10 * time.Millisecond)
	}
	out.status = "timeout"
	return out
}
