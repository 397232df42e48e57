package opt

import (
	"strings"
	"testing"

	"satalloc/internal/encode"
	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/workload"
)

// parallelCorpus is the seeded workload corpus the determinism tests run
// over: the hand-made tiny ring plus synthetic task sets on a 3-ECU ring.
func parallelCorpus() []*model.System {
	corpus := []*model.System{tinyRing()}
	for _, seed := range []int64{1, 2, 5} {
		o := workload.T43Options()
		o.Seed = seed
		o.Tasks = 8
		o.Chains = 2
		o.Restricted = 1
		o.SeparatedPairs = 1
		corpus = append(corpus, workload.Populate(workload.RingArchitecture(3), o))
	}
	return corpus
}

// TestParallelWorkersMatchSequentialCost pins the portfolio's soundness at
// the optimizer level: Workers=4 and Workers=1 must agree on the status
// and the optimal cost (not necessarily the model) for every instance of
// the seeded corpus. Workers=1 takes the unchanged sequential path, so
// this doubles as the regression guard for it.
func TestParallelWorkersMatchSequentialCost(t *testing.T) {
	for i, sys := range parallelCorpus() {
		run := func(workers int) *Result {
			enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Minimize(enc, Options{Incremental: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		seq, par := run(1), run(4)
		if seq.Status != par.Status {
			t.Fatalf("instance %d: status sequential=%v parallel=%v", i, seq.Status, par.Status)
		}
		if seq.Status == Optimal && seq.Cost != par.Cost {
			t.Fatalf("instance %d: cost sequential=%d parallel=%d", i, seq.Cost, par.Cost)
		}
		if par.Conflicts < 0 || len(par.Iters) != par.SolveCalls {
			t.Fatalf("instance %d: broken accounting: conflicts=%d iters=%d calls=%d",
				i, par.Conflicts, len(par.Iters), par.SolveCalls)
		}
	}
}

// TestParallelFreshModeAgrees runs the portfolio in fresh (non-incremental)
// mode, where both the solver and the portfolio are rebuilt per SOLVE call.
func TestParallelFreshModeAgrees(t *testing.T) {
	sys := tinyRing()
	run := func(workers int) int64 {
		enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Minimize(enc, Options{Incremental: false, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("workers=%d status %v", workers, res.Status)
		}
		return res.Cost
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("fresh-mode cost sequential=%d parallel=%d", a, b)
	}
}

// TestParallelMetricsAndEvents checks the portfolio's observability
// surface: the workers gauge, the per-worker win counters, and the
// sat.worker flight-recorder events.
func TestParallelMetricsAndEvents(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewSolverMetrics(metrics.New())
	rec := flightrec.New(0)
	res, err := Minimize(enc, Options{Incremental: true, Workers: 3, Observer: &obs.Observer{Metrics: m, Recorder: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if got := m.ParallelWorkers.Value(); got != 3 {
		t.Errorf("workers gauge = %d, want 3", got)
	}
	starts, wins := 0, 0
	for _, e := range rec.Snapshot() {
		if e.Kind != "sat.worker" {
			continue
		}
		switch {
		case strings.HasPrefix(e.Detail, "start"):
			starts++
		case strings.HasPrefix(e.Detail, "win"):
			wins++
		}
	}
	if starts == 0 {
		t.Error("no sat.worker start events recorded")
	}
	if wins != res.SolveCalls {
		t.Errorf("recorded %d worker wins over %d SOLVE calls", wins, res.SolveCalls)
	}
	// Every definitive verdict must be attributed to exactly one worker.
	if got := m.SolveCalls.Value(); got != int64(res.SolveCalls) {
		t.Errorf("metric solve calls %d, result says %d", got, res.SolveCalls)
	}
}
