package core

import (
	"sync"
	"testing"

	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/sat"
)

// observed is one observer with all five subscribers wired to counters.
type observed struct {
	ob       *obs.Observer
	m        *metrics.SolverMetrics
	rec      *flightrec.Recorder
	mu       sync.Mutex // Progress may fire on portfolio worker goroutines
	progress int
	logs     int
	windows  [][2]int64
}

func newObserved() *observed {
	o := &observed{
		m:   metrics.NewSolverMetrics(metrics.New()),
		rec: flightrec.New(1 << 14),
	}
	o.ob = &obs.Observer{
		Metrics:  o.m,
		Recorder: o.rec,
		Progress: func(sat.Progress) {
			o.mu.Lock()
			o.progress++
			o.mu.Unlock()
		},
		Log:       func(string, ...any) { o.logs++ },
		OnImprove: func(lo, hi int64) { o.windows = append(o.windows, [2]int64{lo, hi}) },
	}
	return o
}

func (o *observed) kinds() map[string]int {
	k := map[string]int{}
	for _, e := range o.rec.Snapshot() {
		k[e.Kind]++
	}
	return k
}

// checkMinimize asserts what a completed binary search must leave in
// every subscriber of the observer it ran under.
func (o *observed) checkMinimize(t *testing.T, sol *Solution) {
	t.Helper()
	if !sol.Feasible {
		t.Fatalf("status %v, want a feasible verdict", sol.Status)
	}
	if o.progress == 0 || o.logs == 0 || len(o.windows) == 0 {
		t.Errorf("silent subscriber: progress=%d logs=%d windows=%d", o.progress, o.logs, len(o.windows))
	}
	if got := o.m.Conflicts.Value(); got != sol.Conflicts {
		t.Errorf("mirrored satalloc_sat_conflicts_total %d, result reports %d", got, sol.Conflicts)
	}
	if got := o.m.SolveCalls.Value(); got != int64(sol.SolveCalls) {
		t.Errorf("metric solve calls %d, result says %d", got, sol.SolveCalls)
	}
	k := o.kinds()
	if k["opt.iter"] != sol.SolveCalls {
		t.Errorf("%d opt.iter events over %d SOLVE calls", k["opt.iter"], sol.SolveCalls)
	}
	if k["core.solve.start"] != 1 || k["core.solve.end"] != 1 || k["sat.solve"] == 0 {
		t.Errorf("missing event kinds: %v", k)
	}
	for i := 1; i < len(o.windows); i++ {
		prev, cur := o.windows[i-1], o.windows[i]
		if cur[0] < prev[0] || cur[1] > prev[1] {
			t.Errorf("window %d moved outward: %v after %v", i, cur, prev)
		}
	}
	if last := o.windows[len(o.windows)-1]; last[1] != sol.Cost {
		t.Errorf("last window %v, final cost %d", last, sol.Cost)
	}
}

func solveObserved(t *testing.T, sys *model.System, cfg Config) (*observed, *Solution) {
	t.Helper()
	o := newObserved()
	cfg.Observer = o.ob
	sol, err := Solve(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, sol
}

// TestObserverWiring carries one observer with all five subscribers
// through SolveContext and checks each of them fires, in the incremental
// search, the fresh-solver-per-call baseline, and an explained
// infeasible verdict.
func TestObserverWiring(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		o, sol := solveObserved(t, smallSystem(), Config{Objective: MinimizeTRT})
		o.checkMinimize(t, sol)
	})
	t.Run("fresh", func(t *testing.T) {
		o, sol := solveObserved(t, smallSystem(), Config{Objective: MinimizeTRT, FreshSolverPerCall: true})
		o.checkMinimize(t, sol)
	})
	t.Run("explain", func(t *testing.T) {
		o, sol := solveObserved(t, infeasibleSystem(), Config{Objective: MinimizeTRT, Explain: true})
		if sol.Feasible || sol.Core == nil {
			t.Fatalf("want an explained infeasible verdict, got %v (core %v)", sol.Status, sol.Core)
		}
		if o.progress == 0 || o.logs == 0 {
			t.Errorf("silent subscriber: progress=%d logs=%d", o.progress, o.logs)
		}
		// No model ever exists, so there is no window to stream.
		if len(o.windows) != 0 {
			t.Errorf("OnImprove fired on an infeasible spec: %v", o.windows)
		}
		if got := o.m.ExplainSolves.Value(); got <= 0 {
			t.Errorf("satalloc_core_explain_solves_total = %d, want > 0", got)
		}
		if got := o.m.ExplainSolves.Value(); got != int64(sol.Core.SolveCalls) {
			t.Errorf("explain solves metric %d, core report says %d", got, sol.Core.SolveCalls)
		}
		if k := o.kinds(); k["core.explain"] == 0 || k["core.solve.end"] != 1 {
			t.Errorf("missing event kinds: %v", k)
		}
	})
}

// TestObserverWiringParallel is TestObserverWiring's portfolio case: the
// race reports through the same observer, and the worker events and
// gauges join the search counters.
func TestObserverWiringParallel(t *testing.T) {
	o, sol := solveObserved(t, smallSystem(), Config{Objective: MinimizeTRT, Workers: 2})
	o.checkMinimize(t, sol)
	if got := o.m.ParallelWorkers.Value(); got != 2 {
		t.Errorf("workers gauge = %d, want 2", got)
	}
	if k := o.kinds(); k["sat.worker"] == 0 {
		t.Errorf("no sat.worker events: %v", k)
	}
}
