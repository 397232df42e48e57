package opt

import (
	"bytes"
	"context"
	"testing"
	"time"

	"satalloc/internal/encode"
	"satalloc/internal/flightrec"
	"satalloc/internal/ir"
	"satalloc/internal/metrics"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/rta"
	"satalloc/internal/sat"
)

// tinyRing builds a 2-ECU token ring with three tasks and one message — a
// system small enough to reason about by hand.
func tinyRing() *model.System {
	s := &model.System{Name: "tiny"}
	s.ECUs = []*model.ECU{{ID: 0, Name: "p0"}, {ID: 1, Name: "p1"}}
	s.Media = []*model.Medium{{
		ID: 0, Name: "ring", Kind: model.TokenRing, ECUs: []int{0, 1},
		TimePerUnit: 1, SlotQuantum: 2, MaxSlots: 8,
	}}
	s.Tasks = []*model.Task{
		{ID: 0, Name: "sense", Period: 40, Deadline: 30, WCET: map[int]int64{0: 6, 1: 6}, Messages: []int{0}},
		{ID: 1, Name: "act", Period: 40, Deadline: 40, WCET: map[int]int64{0: 8, 1: 8}},
		{ID: 2, Name: "load", Period: 20, Deadline: 20, WCET: map[int]int64{0: 9, 1: 9}},
	}
	s.Messages = []*model.Message{
		{ID: 0, Name: "m0", From: 0, To: 1, Size: 3, Deadline: 25},
	}
	return s
}

func TestMinimizeTRTTiny(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	t.Logf("optimal TRT = %d, %d solve calls, %d vars, %d literals",
		res.Cost, res.SolveCalls, res.Vars, res.Literals)
	// Verification already happened inside Minimize; double-check the
	// reported cost matches the allocation's round length.
	if got := res.Allocation.RoundLength(sys.Media[0]); got != res.Cost {
		t.Fatalf("cost %d != decoded round length %d", res.Cost, got)
	}
	// Lower bound: each ECU owns ≥1 quantum, so TRT ≥ 4.
	if res.Cost < 4 {
		t.Fatalf("TRT %d below structural minimum", res.Cost)
	}
	r := rta.Analyze(sys, res.Allocation)
	if !r.Schedulable {
		t.Fatalf("analyzer rejects: %v", r.Violations)
	}
}

func TestIncrementalAndFreshAgree(t *testing.T) {
	sys := tinyRing()
	run := func(inc bool) int64 {
		enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Minimize(enc, Options{Incremental: inc})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("status %v", res.Status)
		}
		return res.Cost
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("incremental %d != fresh %d", a, b)
	}
}

func TestInfeasibleSystem(t *testing.T) {
	sys := tinyRing()
	// Overload both ECUs: three tasks of utilization ~0.95 each can never
	// fit on two ECUs together with the existing load.
	for _, task := range sys.Tasks {
		task.WCET[0] = task.Period - 1
		task.WCET[1] = task.Period - 1
		task.Deadline = task.Period
	}
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestSeparationForcesSplit(t *testing.T) {
	sys := tinyRing()
	sys.Tasks[0].Separation = []int{1}
	sys.Tasks[1].Separation = []int{0}
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.Allocation.TaskECU[0] == res.Allocation.TaskECU[1] {
		t.Fatal("separated tasks share an ECU")
	}
}

func TestAbortedRunReturnsBestSoFar(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	// A one-conflict budget may interrupt at any point of the search; the
	// result must land on a coherent rung of the degradation ladder.
	res, err := Minimize(enc, Options{Incremental: true, MaxConflictsPerCall: 1})
	if err != nil {
		t.Fatal(err)
	}
	switch res.Status {
	case Optimal:
		if res.Allocation == nil {
			t.Fatal("optimal without allocation")
		}
		if res.LowerBound != res.Cost {
			t.Fatalf("optimal must close the window: L=%d R=%d", res.LowerBound, res.Cost)
		}
	case Feasible:
		// Interrupted with an incumbent: it must exist, verify, and come
		// with a lower bound no greater than its cost.
		if res.Allocation == nil {
			t.Fatal("feasible without incumbent")
		}
		if err := res.Allocation.CheckStructure(sys); err != nil {
			t.Fatal(err)
		}
		if res.LowerBound > res.Cost {
			t.Fatalf("lower bound %d exceeds incumbent cost %d", res.LowerBound, res.Cost)
		}
	case Aborted:
		// Interrupted before any model: nothing to return.
		if res.Allocation != nil {
			t.Fatal("aborted must not carry an allocation")
		}
	case Infeasible:
		t.Fatal("tiny ring is feasible")
	}
}

// TestStatusStringExhaustive pins the String form of every Status — the
// regression test for the fallthrough that rendered Feasible as "aborted".
func TestStatusStringExhaustive(t *testing.T) {
	want := map[Status]string{
		Optimal:    "optimal",
		Infeasible: "infeasible",
		Aborted:    "aborted",
		Feasible:   "feasible",
	}
	seen := map[string]bool{}
	for s, w := range want {
		got := s.String()
		if got != w {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), got, w)
		}
		if seen[got] {
			t.Errorf("duplicate String %q", got)
		}
		seen[got] = true
	}
	if got := Status(99).String(); got != "Status(99)" {
		t.Errorf("unknown status renders as %q", got)
	}
}

// budgetedFeasible cancels the run's context as the second SOLVE call
// starts, so the search deterministically holds one incumbent (the first
// model) when the interruption lands, and must degrade to Feasible.
func budgetedFeasible(t *testing.T, incremental bool) {
	t.Helper()
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solves := 0
	res, err := Minimize(enc, Options{
		Incremental: incremental,
		Ctx:         ctx,
		Observer: &obs.Observer{Progress: func(p sat.Progress) {
			if p.Event == "solve" {
				solves++
				if solves == 2 {
					cancel()
				}
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible {
		t.Fatalf("status %v, want feasible (solver saw %d solve events)", res.Status, solves)
	}
	if res.Allocation == nil {
		t.Fatal("feasible result must carry the incumbent")
	}
	if res.LowerBound > res.Cost {
		t.Fatalf("lower bound %d > incumbent cost %d", res.LowerBound, res.Cost)
	}
	if res.LowerBound < enc.Cost.Lo {
		t.Fatalf("lower bound %d below the structural bound %d", res.LowerBound, enc.Cost.Lo)
	}
	// Minimize verified internally; re-check with the
	// independent analyzer for belt and braces.
	if r := rta.Analyze(sys, res.Allocation); !r.Schedulable {
		t.Fatalf("incumbent rejected by analyzer: %v", r.Violations)
	}
}

func TestCancelledSearchDegradesToFeasibleIncremental(t *testing.T) {
	budgetedFeasible(t, true)
}

func TestCancelledSearchDegradesToFeasibleFresh(t *testing.T) {
	budgetedFeasible(t, false)
}

// TestExpiredDeadlineAbortsBeforeFirstModel: a context that is already
// dead stops the very first SOLVE call at entry, so no model can exist and
// the ladder bottoms out at Aborted with the structural lower bound.
func TestExpiredDeadlineAbortsBeforeFirstModel(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	res, err := Minimize(enc, Options{Incremental: true, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Aborted {
		t.Fatalf("status %v, want aborted", res.Status)
	}
	if res.Allocation != nil {
		t.Fatal("no model can exist under an expired deadline")
	}
	if res.LowerBound != enc.Cost.Lo {
		t.Fatalf("lower bound %d, want the structural bound %d", res.LowerBound, enc.Cost.Lo)
	}
}

func TestMinimizeLogsProgress(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	_, err = Minimize(enc, Options{Incremental: true, Observer: &obs.Observer{Log: func(string, ...any) { lines++ }}})
	if err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("expected progress lines")
	}
}

// TestConflictAccountingIsDelta is the regression test for the stats
// double-count bug: in incremental mode the optimizer used to add the
// solver's *cumulative* conflict counter after every SOLVE call (summing
// prefix sums). Result.Conflicts must equal the solver's final cumulative
// count and the sum of the per-iteration deltas.
func TestConflictAccountingIsDelta(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolveCalls < 2 {
		t.Fatalf("need ≥2 SOLVE calls to expose double counting, got %d", res.SolveCalls)
	}
	if res.Conflicts != res.SolverStats.Conflicts {
		t.Fatalf("Result.Conflicts=%d, solver cumulative=%d (double counting?)",
			res.Conflicts, res.SolverStats.Conflicts)
	}
	if res.Decisions != res.SolverStats.Decisions {
		t.Fatalf("Result.Decisions=%d, solver cumulative=%d", res.Decisions, res.SolverStats.Decisions)
	}
	if len(res.Iters) != res.SolveCalls {
		t.Fatalf("%d IterStats for %d SOLVE calls", len(res.Iters), res.SolveCalls)
	}
	var sumC, sumD int64
	for i, it := range res.Iters {
		if it.Call != i+1 {
			t.Fatalf("iter %d has Call=%d", i, it.Call)
		}
		if it.Conflicts < 0 || it.Decisions < 0 {
			t.Fatalf("negative delta in iter %+v", it)
		}
		if (it.Status == sat.Sat) != (it.Cost >= 0) {
			t.Fatalf("iter %+v: Cost must be set iff Sat", it)
		}
		sumC += it.Conflicts
		sumD += it.Decisions
	}
	if sumC != res.Conflicts || sumD != res.Decisions {
		t.Fatalf("iter deltas sum to %d/%d, Result says %d/%d", sumC, sumD, res.Conflicts, res.Decisions)
	}
}

// TestFreshModeAccountingMatches checks the delta accounting in fresh
// (non-incremental) mode, where each call gets its own solver.
func TestFreshModeAccountingMatches(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: false})
	if err != nil {
		t.Fatal(err)
	}
	var sumC int64
	for _, it := range res.Iters {
		sumC += it.Conflicts
	}
	if sumC != res.Conflicts {
		t.Fatalf("fresh-mode deltas sum to %d, Result says %d", sumC, res.Conflicts)
	}
	// The last fresh solver only saw the final call.
	if last := res.Iters[len(res.Iters)-1]; res.SolverStats.Conflicts != last.Conflicts {
		t.Fatalf("fresh-mode SolverStats.Conflicts=%d, want last call's %d",
			res.SolverStats.Conflicts, last.Conflicts)
	}
}

// TestMinimizeEmitsTrace checks the optimizer's span plumbing: a traced
// run must record the BitBlast and per-call Solve spans as JSONL.
func TestMinimizeEmitsTrace(t *testing.T) {
	sys := tinyRing()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	root := tr.Start("test")
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: true, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"span":"Encode"`, `"span":"Triplet"`, `"span":"BitBlast"`, `"span":"Solve[1]"`, `"span":"Decode"`, `"span":"Verify"`} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
	if got := bytes.Count([]byte(out), []byte(`"span":"Solve[`)); got != res.SolveCalls {
		t.Fatalf("%d Solve spans for %d calls", got, res.SolveCalls)
	}
}

// TestMinimizeProgressHook checks that the progress hook reaches the
// underlying solver and reports the solve boundaries.
func TestMinimizeProgressHook(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	res, err := Minimize(enc, Options{Incremental: true, Observer: &obs.Observer{Progress: func(p sat.Progress) {
		events = append(events, p.Event)
	}}})
	if err != nil {
		t.Fatal(err)
	}
	solves := 0
	for _, e := range events {
		if e == "solve" {
			solves++
		}
	}
	if solves != res.SolveCalls {
		t.Fatalf("%d solve events for %d SOLVE calls", solves, res.SolveCalls)
	}
}

func TestEnumerateOptimalPlacements(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	// Enumerate distinct optimal placements; every one must analyze
	// schedulable at exactly the optimal cost.
	enc2, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	n, err := EnumerateOptimalPlacements(enc2, res.Cost, 16, func(a *model.Allocation) bool {
		key := ""
		for _, task := range sys.Tasks {
			key += string(rune('0' + a.TaskECU[task.ID]))
		}
		if seen[key] {
			t.Errorf("duplicate placement %s", key)
		}
		seen[key] = true
		r := rta.Analyze(sys, a)
		if !r.Schedulable {
			t.Errorf("enumerated placement not schedulable: %v", r.Violations)
		}
		if got := a.RoundLength(sys.Media[0]); got != res.Cost {
			t.Errorf("enumerated placement at cost %d, want %d", got, res.Cost)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatal("at least the proven optimum must be enumerable")
	}
	t.Logf("%d distinct optimal placements", n)
}

// enumSetup minimizes the tiny ring and returns a fresh encoding plus the
// proven optimum, ready for enumeration tests.
func enumSetup(t *testing.T) (*encode.Encoding, int64) {
	t.Helper()
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(enc, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	enc2, err := encode.Encode(tinyRing(), encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	return enc2, res.Cost
}

func TestEnumerateRespectsLimit(t *testing.T) {
	enc, optimal := enumSetup(t)
	// Unlimited enumeration establishes the true count...
	all, err := EnumerateOptimalPlacements(enc, optimal, 0, func(*model.Allocation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if all < 2 {
		t.Skipf("only %d optimal placement(s); limit test needs ≥2", all)
	}
	// ...and a limit of 1 must stop after exactly one model.
	enc2, _ := enumSetup(t)
	calls := 0
	n, err := EnumerateOptimalPlacements(enc2, optimal, 1, func(*model.Allocation) bool {
		calls++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || calls != 1 {
		t.Fatalf("limit=1 enumerated %d models (%d callbacks)", n, calls)
	}
}

func TestEnumerateStopsWhenFnReturnsFalse(t *testing.T) {
	enc, optimal := enumSetup(t)
	calls := 0
	n, err := EnumerateOptimalPlacements(enc, optimal, 0, func(*model.Allocation) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || calls != 1 {
		t.Fatalf("fn=false should stop after the first model, got n=%d calls=%d", n, calls)
	}
}

func TestEnumerateInfeasibleCostYieldsNothing(t *testing.T) {
	enc, optimal := enumSetup(t)
	// Below the proven optimum the pinned window [c,c] is empty.
	n, err := EnumerateOptimalPlacements(enc, optimal-1, 0, func(*model.Allocation) bool {
		t.Fatal("callback on infeasible cost")
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("enumerated %d models below the optimum", n)
	}
}

// TestDecodeErrorPropagates covers the decode-error path the enumerator
// forwards: Decode must reject an assignment that places no task, which is
// the failure EnumerateOptimalPlacements surfaces as its error return (a
// well-formed encoding can never produce such a model, so the error is
// exercised at the Decode layer directly).
func TestDecodeErrorPropagates(t *testing.T) {
	enc, _ := enumSetup(t)
	if _, err := enc.Decode(ir.NewAssignment()); err == nil {
		t.Fatal("Decode must fail on an empty assignment")
	}
}

// TestMinimizeMetricsAndRecorder runs a full minimization with the live
// instrumentation wired and asserts the registry and flight recorder end
// up describing the search: solve-call count, settled bounds (L == R ==
// optimum for an optimal run), incumbent cost, mirrored conflict
// counters, and the iteration/bounds/incumbent event trail.
func TestMinimizeMetricsAndRecorder(t *testing.T) {
	for _, inc := range []bool{true, false} {
		sys := tinyRing()
		enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
		if err != nil {
			t.Fatal(err)
		}
		m := metrics.NewSolverMetrics(metrics.New())
		rec := flightrec.New(0)
		res, err := Minimize(enc, Options{Incremental: inc, Observer: &obs.Observer{Metrics: m, Recorder: rec}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("inc=%v status %v", inc, res.Status)
		}
		if got := m.SolveCalls.Value(); got != int64(res.SolveCalls) {
			t.Errorf("inc=%v metric solve calls %d, result says %d", inc, got, res.SolveCalls)
		}
		if l, r := m.BoundLower.Value(), m.BoundUpper.Value(); l != res.Cost || r != res.Cost {
			t.Errorf("inc=%v final bounds [%d,%d], want [%d,%d]", inc, l, r, res.Cost, res.Cost)
		}
		if got := m.IncumbentCost.Value(); got != res.Cost {
			t.Errorf("inc=%v incumbent gauge %d, want %d", inc, got, res.Cost)
		}
		if got := m.Conflicts.Value(); got != res.Conflicts {
			t.Errorf("inc=%v mirrored conflicts %d, result counted %d", inc, got, res.Conflicts)
		}
		kinds := map[string]int{}
		for _, e := range rec.Snapshot() {
			kinds[e.Kind]++
		}
		if kinds["opt.iter"] != res.SolveCalls {
			t.Errorf("inc=%v recorded %d opt.iter events over %d calls", inc, kinds["opt.iter"], res.SolveCalls)
		}
		if kinds["opt.incumbent"] == 0 || kinds["opt.bounds"] == 0 || kinds["sat.solve"] == 0 {
			t.Errorf("inc=%v missing event kinds: %v", inc, kinds)
		}
		if kinds["opt.budget"] != 0 {
			t.Errorf("inc=%v spurious budget events: %v", inc, kinds)
		}
	}
}

// TestMinimizeBudgetHitRecordsEvents interrupts the search mid-way and
// checks the budget hit reaches both the counter and the event ring.
func TestMinimizeBudgetHitRecordsEvents(t *testing.T) {
	sys := tinyRing()
	enc, err := encode.Encode(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := metrics.NewSolverMetrics(metrics.New())
	rec := flightrec.New(0)
	calls := 0
	res, err := Minimize(enc, Options{
		Incremental: true,
		Ctx:         ctx,
		Observer: &obs.Observer{Metrics: m, Recorder: rec, Log: func(string, ...any) {
			// Cancel after the initial model so the search degrades to
			// Feasible rather than Aborted.
			calls++
			if calls == 1 {
				cancel()
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if res.Status != Feasible {
		t.Skipf("search finished before cancellation took effect (status %v)", res.Status)
	}
	if m.BudgetHits.Value() == 0 {
		t.Error("interrupted SOLVE call did not count a budget hit")
	}
	found := false
	for _, e := range rec.Snapshot() {
		if e.Kind == "opt.budget" {
			found = true
		}
	}
	if !found {
		t.Error("no opt.budget event recorded")
	}
}
