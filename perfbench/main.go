// Command perfbench is the repository benchmark: it drives the allocator
// through its public surfaces — the workload generators, core.SolveContext
// and the allocd HTTP service — over fixed, seeded corpora, checks every
// verdict, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer metrics and prints a self-time
// table per module. See README.md for the workloads and the metric map.
//
// Usage (normally through run.sh, which builds this binary and allocd):
//
//	perfbench -workload paper-tables|certified|service -seed N -seconds S -trace 0|1
//	perfbench -make-reference reference.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// defaultSeed is the seed whose certified corpus reference.json covers.
const defaultSeed = 1

// endToEnd and perLayer name every metric the benchmark prints, with its
// unit: every workload reports all of endToEnd in an untraced run and all
// of perLayer in a traced one. A metric missing here is a programming
// error in the benchmark itself.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"solves_per_s":     "1/s",
	"solve_ms_geomean": "ms",
	"solve_ms_p50":     "ms",
	"solve_ms_p90":     "ms",
	"cpu_ms_per_op":    "ms",
	"rss_peak_mb":      "MB",
	"ok_frac":          "frac",
}

var perLayer = map[string]string{
	"workload.gen_ms":               "ms",
	"encode.ms":                     "ms",
	"ir.triplet_ms":                 "ms",
	"bv.blast_ms":                   "ms",
	"bv.vars":                       "count",
	"bv.literals":                   "count",
	"bv.gates_reused_frac":          "frac",
	"sat.sat_probe_ms":              "ms",
	"sat.unsat_probe_ms":            "ms",
	"sat.conflicts":                 "count",
	"sat.decisions":                 "count",
	"sat.propagations":              "count",
	"sat.props_per_ms":              "1/ms",
	"sat.restarts":                  "count",
	"sat.learnt_pruned_frac":        "frac",
	"opt.probes":                    "count",
	"opt.unsat_probes":              "count",
	"opt.decode_verify_ms":          "ms",
	"rta.verify_ms":                 "ms",
	"proof.check_ms":                "ms",
	"proof.steps":                   "count",
	"proof.probes":                  "count",
	"opt.explain_ms":                "ms",
	"opt.explain_probes":            "count",
	"serve.submit_ms_p50":           "ms",
	"serve.queue_wait_ms_p95":       "ms",
	"serve.attempt_ms_p50":          "ms",
	"serve.hit_ms_p50":              "ms",
	"serve.cache_hit_frac":          "frac",
	"serve.journal_records_per_job": "count",
	"serve.rejected":                "count",
	"go.alloc_mb_per_op":            "MB",
	"go.gc_cycles_per_op":           "count",
	"gen.late_ms_p99":               "ms",
	"host.calib_ms":                 "ms",
	"obs.trace_overhead_frac":       "frac",
	"work.varying_instances":        "count",
}

// Layers a workload does not run. Their metrics read 0 there: the time
// and work of a layer that never runs.
var (
	proofLayer = []string{"proof.check_ms", "proof.steps", "proof.probes", "opt.explain_ms", "opt.explain_probes"}
	serveLayer = []string{"serve.submit_ms_p50", "serve.queue_wait_ms_p95", "serve.attempt_ms_p50",
		"serve.hit_ms_p50", "serve.cache_hit_frac", "serve.journal_records_per_job", "serve.rejected"}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome. failed counts every op that did
// not deliver a checked verdict; wrong lists the verdict mismatches among
// them, which make the run incorrect.
type report struct {
	attempted int
	failed    int
	wrong     []string
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric by name.
func (r *report) set(name string, v float64) {
	u, ok := endToEnd[name]
	if !ok {
		u, ok = perLayer[name]
	}
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

// absent records the metrics of layers the workload does not run as 0.
func (r *report) absent(names []string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// missing returns the names of want that were not set, sorted.
func (r *report) missing(want map[string]string) []string {
	var out []string
	for n := range want {
		if _, ok := r.metrics[n]; !ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// fail counts one failed op; a non-empty mismatch also marks it wrong.
func (r *report) fail(mismatch string) {
	r.failed++
	if mismatch != "" {
		r.wrong = append(r.wrong, mismatch)
	}
}

// okFrac sets ok_frac, the share of attempted ops that delivered a
// checked verdict.
func (r *report) okFrac() {
	if r.attempted > 0 {
		r.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
	}
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	allocd   string // path of the allocd binary (service workload)
	workdir  string // scratch directory for allocd data dirs
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "paper-tables, certified or service")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "corpus seed")
	flag.IntVar(&secs, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.allocd, "allocd", "", "allocd binary (service workload)")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for the service's data dirs")
	makeRef := flag.String("make-reference", "", "write the exhaustive-oracle reference for the default-seed certified corpus to this file and exit")
	flag.Parse()
	if *makeRef != "" {
		if err := writeReference(*makeRef); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1

	calibStart := calibrate()
	rep := newReport()
	var err error
	switch o.workload {
	case "paper-tables":
		err = runClosedLoop(o, paperTables, rep)
	case "certified":
		err = runClosedLoop(o, certified, rep)
	case "service":
		err = runService(o, rep)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	calibEnd := calibrate()
	fmt.Printf("host: calibration loop %.2f ms at start, %.2f ms at end (%+.1f%%)\n",
		calibStart, calibEnd, 100*(calibEnd/calibStart-1))
	want := endToEnd
	if o.trace {
		rep.set("host.calib_ms", (calibStart+calibEnd)/2)
		want = perLayer
	}
	if m := rep.missing(want); len(m) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: metrics not measured: %v\n", o.workload, m)
		return 1
	}
	for _, w := range rep.wrong {
		fmt.Printf("WRONG: %s\n", w)
	}
	printMetrics(rep)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.wrong) == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printMetrics writes the human-readable metric listing.
func printMetrics(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("  %-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
