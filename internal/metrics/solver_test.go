package metrics_test

import (
	"bytes"
	"strconv"
	"sync"
	"testing"
	"time"

	"satalloc/internal/metrics"
	"satalloc/internal/obs"
	"satalloc/internal/sat"
)

// The solver metric set is written only by obs.Observer, so these tests
// drive it the way the pipeline does: through an observer attached to a
// solver, whose hooks they fire directly with the cumulative counters a
// search would report.

// report fires s's progress hook with cumulative counters in the order
// conflicts, decisions, propagations, restarts, learnt added, learnt
// pruned, learnt DB size, trail depth.
func report(s *sat.Solver, c, d, p, r, la, lp int64, learnts, trail int) {
	s.OnProgress(sat.Progress{Event: "restart", Conflicts: c, Decisions: d, Propagations: p,
		Restarts: r, LearntAdded: la, LearntPruned: lp, Learnts: learnts, TrailDepth: trail})
}

func TestSearchHookDeltasAcrossFreshSolvers(t *testing.T) {
	r := metrics.New()
	m := metrics.NewSolverMetrics(r)
	ob := &obs.Observer{Metrics: m}
	// Solver 1 reports cumulative counters up to 100 conflicts.
	s1 := sat.New()
	ob.Attach(s1)
	report(s1, 40, 10, 1000, 1, 5, 0, 5, 3)
	report(s1, 100, 30, 3000, 3, 20, 8, 12, 7)
	// A fresh solver restarts its cumulative counters at zero; attaching
	// to it starts fresh delta state and keeps the mirrored totals
	// monotone.
	s2 := sat.New()
	ob.Attach(s2)
	report(s2, 50, 5, 500, 2, 10, 1, 9, 2)
	if got := m.Conflicts.Value(); got != 150 {
		t.Fatalf("conflicts = %d, want 150", got)
	}
	if got := m.Restarts.Value(); got != 5 {
		t.Fatalf("restarts = %d, want 5", got)
	}
	if got := m.LearntDB.Value(); got != 9 {
		t.Fatalf("learnt DB gauge = %d, want 9 (last report wins)", got)
	}
}

func TestSolverMetricsRecords(t *testing.T) {
	r := metrics.New()
	m := metrics.NewSolverMetrics(r)
	ob := &obs.Observer{Metrics: m}
	if m.BoundLower.Value() != -1 || m.IncumbentCost.Value() != -1 {
		t.Fatal("unknown bounds must read -1")
	}
	ob.Bounds(3, 9)
	if m.BoundGap.Value() != 6 {
		t.Fatalf("gap = %d", m.BoundGap.Value())
	}
	ob.Incumbent(9, true)
	ob.Iter(1, -1, -1, sat.Sat, 9, 0, 25*time.Millisecond)
	ob.Iter(2, 3, 6, sat.Unknown, -1, 0, time.Millisecond)
	if m.SolveCalls.Value() != 2 || m.BudgetHits.Value() != 1 {
		t.Fatal("iteration counters wrong")
	}
	ob.SolveEnd("optimal", 9, 0)
	ob.SolveEnd("optimal", 9, 0)
	ob.SolveEnd("feasible", 9, 0)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := metrics.ParsePrometheus(t, buf.String())
	if samples[`satalloc_core_solves_completed_total{status="optimal"}`] != 2 ||
		samples[`satalloc_core_solves_completed_total{status="feasible"}`] != 1 {
		t.Fatalf("status-labelled completions wrong:\n%s", buf.String())
	}
	s := sat.New()
	ob.Attach(s)
	s.OnConflict(3, 2, 4)
	if m.LBD.Snapshot().Count != 1 || m.Backjump.Snapshot().Count != 1 {
		t.Fatal("conflict hook did not observe")
	}
}

// TestConcurrentUse exercises every collector from many goroutines; run
// under -race this proves the atomic paths.
func TestConcurrentUse(t *testing.T) {
	r := metrics.New()
	m := metrics.NewSolverMetrics(r)
	ob := &obs.Observer{Metrics: m}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sat.New()
			ob.Attach(s)
			for j := 0; j < 1000; j++ {
				report(s, int64(j), int64(j), int64(j), int64(j/10), int64(j/5), int64(j/7), j%20, j%50)
				s.OnConflict(j%30, j%10, j%8)
				ob.Bounds(int64(j), int64(j+10))
				ob.Incumbent(int64(j), false)
				r.Counter("dyn_total", "", metrics.Labels{"g": strconv.Itoa(i % 2)}).Inc()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("exposition during writes: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("dyn_total", "", metrics.Labels{"g": "0"}).Value() +
		r.Counter("dyn_total", "", metrics.Labels{"g": "1"}).Value(); got != 8000 {
		t.Fatalf("dynamic counters lost increments: %d", got)
	}
	if m.LBD.Snapshot().Count != 8000 {
		t.Fatalf("LBD observations lost: %d", m.LBD.Snapshot().Count)
	}
}
