package ophttp

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/obs"
	"satalloc/internal/sat"
)

func startTestServer(t *testing.T, o Options) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	reg := metrics.New()
	m := metrics.NewSolverMetrics(reg)
	rec := flightrec.New(16)
	s := startTestServer(t, Options{Registry: reg, Solver: m, Recorder: rec, Component: "test"})

	// Simulate a solve in flight.
	ob := &obs.Observer{Metrics: m}
	solver := sat.New()
	ob.Attach(solver)
	hook := func(c, d, p, r, la, lp int64, learnts, trail int) {
		solver.OnProgress(sat.Progress{Event: "restart", Conflicts: c, Decisions: d, Propagations: p,
			Restarts: r, LearntAdded: la, LearntPruned: lp, Learnts: learnts, TrailDepth: trail})
	}
	hook(1200, 300, 90000, 7, 400, 100, 300, 42)
	solver.OnConflict(5, 3, 7)
	ob.Bounds(10, 25)
	ob.Incumbent(25, true)
	ob.Iter(1, -1, -1, sat.Sat, 25, 1200, 40*time.Millisecond)
	rec.Record("sat.restart", "conflicts=1200")

	if code, body := get(t, s, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := get(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"satalloc_sat_conflicts_total 1200",
		"satalloc_opt_bound_lower 10",
		"satalloc_opt_bound_upper 25",
		`satalloc_sat_lbd_bucket{le="6"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, s, "/progress")
	if code != 200 {
		t.Fatalf("/progress = %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if p.Component != "test" || p.Conflicts != 1200 || p.IncumbentCost != 25 || p.BoundGap != 15 {
		t.Fatalf("/progress payload wrong: %+v", p)
	}
	// One 40ms SOLVE call was recorded, so the latency percentiles are
	// live and ordered.
	if p.SolveCallP50MS <= 0 || p.SolveCallP50MS > p.SolveCallP99MS {
		t.Fatalf("/progress solve-call percentiles wrong: %+v", p)
	}

	// A second scrape after more conflicts reports a positive rate.
	hook(2400, 600, 180000, 9, 500, 120, 280, 30)
	time.Sleep(10 * time.Millisecond)
	_, body = get(t, s, "/progress")
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if p.ConflictsPerSec <= 0 {
		t.Fatalf("second scrape must report a conflict rate: %+v", p)
	}

	code, body = get(t, s, "/debug/flightrec")
	if code != 200 {
		t.Fatalf("/debug/flightrec = %d", code)
	}
	var d flightrec.Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil || len(d.Events) != 1 || d.Events[0].Kind != "sat.restart" {
		t.Fatalf("/debug/flightrec wrong: %+v err=%v", d, err)
	}

	code, body = get(t, s, "/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if string(vars["satalloc_sat_conflicts_total"]) != "2400" {
		t.Fatalf("/debug/vars conflicts = %s", vars["satalloc_sat_conflicts_total"])
	}

	if code, body := get(t, s, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

// TestEmptyOptions proves every endpoint stays up with nothing wired —
// the partially configured server must be scrapeable, not panic.
func TestEmptyOptions(t *testing.T) {
	s := startTestServer(t, Options{})
	if code, _ := get(t, s, "/healthz"); code != 200 {
		t.Fatal("healthz down")
	}
	if code, _ := get(t, s, "/metrics"); code != 200 {
		t.Fatal("metrics down")
	}
	_, body := get(t, s, "/progress")
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil || p.IncumbentCost != -1 {
		t.Fatalf("empty progress wrong: %+v err=%v", p, err)
	}
	if p.SolveCallP99MS != -1 {
		t.Fatalf("no SOLVE calls yet, p99 must be -1: %+v", p)
	}
	_, body = get(t, s, "/debug/flightrec")
	var d flightrec.Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil || len(d.Events) != 0 {
		t.Fatalf("empty flightrec wrong: %+v err=%v", d, err)
	}
}

func TestStartRejectsBusyAddr(t *testing.T) {
	s := startTestServer(t, Options{})
	if _, err := Start(s.Addr(), Options{}); err == nil {
		t.Fatal("second listener on the same address must fail")
	}
}

func TestExplainRoute(t *testing.T) {
	s := startTestServer(t, Options{Registry: metrics.New(), Recorder: flightrec.New(4)})

	code, body := get(t, s, "/explain")
	if code != 200 {
		t.Fatalf("/explain before publish: status %d", code)
	}
	var none map[string]string
	if err := json.Unmarshal([]byte(body), &none); err != nil || none["status"] != "none" {
		t.Fatalf("/explain before publish = %q, want {\"status\":\"none\"}", body)
	}

	s.PublishExplain(struct {
		Status string   `json:"status"`
		Core   []string `json:"core"`
	}{"infeasible", []string{"deadline(task7)", "memory(ecu2)"}})
	code, body = get(t, s, "/explain")
	if code != 200 {
		t.Fatalf("/explain after publish: status %d", code)
	}
	var pub struct {
		Status string   `json:"status"`
		Core   []string `json:"core"`
	}
	if err := json.Unmarshal([]byte(body), &pub); err != nil {
		t.Fatalf("/explain not JSON: %v\n%s", err, body)
	}
	if pub.Status != "infeasible" || len(pub.Core) != 2 || pub.Core[0] != "deadline(task7)" {
		t.Fatalf("/explain payload mangled: %+v", pub)
	}

	// Re-publishing replaces the payload; nil receiver is a no-op.
	s.PublishExplain(map[string]string{"status": "feasible"})
	if _, body := get(t, s, "/explain"); !strings.Contains(body, "feasible") {
		t.Fatalf("republish not visible: %s", body)
	}
	var nilSrv *Server
	nilSrv.PublishExplain("x")
}
