package obs

import (
	"strconv"
	"time"

	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/proof"
	"satalloc/internal/sat"
)

// Observer is the one value the solve pipeline reports through. Each
// method is one observation of the pipeline, fanned out in one place to
// every subscriber that is set. A nil *Observer, like a nil subscriber,
// observes nothing, at one nil check per observation. Build it once
// (cli.Ops does for the CLIs) and take a Copy to vary one subscriber.
//
//satlint:nilsafe
type Observer struct {
	// Metrics receives the live counter, gauge and histogram series.
	Metrics *metrics.SolverMetrics
	// Recorder is the flight recorder receiving the recent-event ring.
	Recorder *flightrec.Recorder
	// Progress receives every solver progress snapshot (solve entry,
	// restart, learnt-DB reduction, done); see NewProgressPrinter.
	Progress func(sat.Progress)
	// Log receives human-readable progress lines.
	Log func(format string, args ...any)
	// OnImprove receives the binary search's proven window [lower, upper]
	// after the initial model and after every window move; upper is always
	// the cost of a model already in hand. It runs on the search
	// goroutine: keep it fast and non-blocking.
	OnImprove func(lower, upper int64)
}

// disabled stands in for a nil Metrics: the zero SolverMetrics has nil
// series, and a nil series ignores every write.
var disabled metrics.SolverMetrics

// metricSet returns the metric set to write, never nil.
func (o *Observer) metricSet() *metrics.SolverMetrics {
	if o.Metrics == nil {
		return &disabled
	}
	return o.Metrics
}

// Copy returns the subscriber set by value (the zero Observer for nil).
func (o *Observer) Copy() Observer {
	if o == nil {
		return Observer{}
	}
	return *o
}

// Attach installs the observer's hooks on one solver: OnProgress feeds the
// progress printer, the search counters and the flight recorder,
// OnConflict the LBD and backjump histograms. The counter mirror keeps
// per-solver delta state, so attach every solver built. A hook nothing
// subscribes to stays nil.
func (o *Observer) Attach(s *sat.Solver) {
	if o == nil {
		return
	}
	prog, rec, m := o.Progress, o.Recorder, o.Metrics
	if m != nil {
		s.OnConflict = func(lbd, backjump, _ int) {
			m.LBD.Observe(int64(lbd))
			m.Backjump.Observe(int64(backjump))
		}
	}
	if prog == nil && rec == nil && m == nil {
		return
	}
	var last sat.Progress
	s.OnProgress = func(p sat.Progress) {
		if prog != nil {
			prog(p)
		}
		if m != nil {
			addSearch(m, p.Conflicts-last.Conflicts, p.Decisions-last.Decisions,
				p.Propagations-last.Propagations, p.Restarts-last.Restarts,
				p.LearntAdded-last.LearntAdded, p.LearntPruned-last.LearntPruned)
			m.LearntDB.Set(int64(p.Learnts))
			m.TrailDepth.Set(int64(p.TrailDepth))
			last = p
		}
		if rec != nil {
			rec.Record("sat."+p.Event,
				"conflicts=%d decisions=%d propagations=%d restarts=%d learnts=%d trail=%d",
				p.Conflicts, p.Decisions, p.Propagations, p.Restarts, p.Learnts, p.TrailDepth)
		}
	}
}

// addSearch adds search-effort deltas to the mirrored search counters.
func addSearch(m *metrics.SolverMetrics, conflicts, decisions, propagations, restarts, learntAdded, learntPruned int64) {
	m.Conflicts.Add(conflicts)
	m.Decisions.Add(decisions)
	m.Propagations.Add(propagations)
	m.Restarts.Add(restarts)
	m.LearntAdded.Add(learntAdded)
	m.LearntPruned.Add(learntPruned)
}

// Encoder returns the sink for one bit-blaster's cumulative gate counters
// and the solver's size, with per-blaster delta state like Attach's. Nil
// when nothing subscribes.
func (o *Observer) Encoder() func(requested, emitted, folded, reused int64, vars int, literals int64) {
	if o == nil || o.Metrics == nil {
		return nil
	}
	m := o.Metrics
	var last struct{ req, emit, fold, reuse int64 }
	return func(requested, emitted, folded, reused int64, vars int, literals int64) {
		m.EncodeGatesRequested.Add(requested - last.req)
		m.EncodeGatesEmitted.Add(emitted - last.emit)
		m.EncodeGatesFolded.Add(folded - last.fold)
		m.EncodeGatesReused.Add(reused - last.reuse)
		last.req, last.emit, last.fold, last.reuse = requested, emitted, folded, reused
		m.EncodeVars.Set(int64(vars))
		m.EncodeLiterals.Set(literals)
	}
}

// Logf emits one progress line.
func (o *Observer) Logf(format string, args ...any) {
	if o == nil || o.Log == nil {
		return
	}
	o.Log(format, args...)
}

// SolveStart observes a core.Solve pipeline run beginning.
func (o *Observer) SolveStart(system string, tasks, messages int) {
	if o == nil {
		return
	}
	o.metricSet().SolvesStarted.Inc()
	o.Recorder.Record("core.solve.start", "system=%s tasks=%d messages=%d", system, tasks, messages)
}

// SolveEnd observes a pipeline run ending with a verdict.
func (o *Observer) SolveEnd(status string, cost, conflicts int64) {
	if o == nil {
		return
	}
	o.solvesCompleted(status)
	o.Recorder.Record("core.solve.end", "status=%s cost=%d conflicts=%d", status, cost, conflicts)
}

// SolveFailed observes a pipeline run ending in an error.
func (o *Observer) SolveFailed(err error) {
	if o == nil {
		return
	}
	o.solvesCompleted("error")
	o.Recorder.Record("core.solve.end", "status=error err=%v", err)
}

func (o *Observer) solvesCompleted(status string) {
	o.metricSet().Registry().Counter("satalloc_core_solves_completed_total",
		"core.Solve pipeline runs completed, by outcome", metrics.Labels{"status": status}).Inc()
}

// Panic observes a panic contained at the pipeline boundary.
func (o *Observer) Panic(v any) {
	if o == nil {
		return
	}
	o.metricSet().Panics.Inc()
	o.Recorder.Record("core.panic", "%v", v)
}

// Iter observes one SOLVE call: its 1-based index, the cost window
// [lo, hi] it assumed (-1: that side unconstrained), its verdict, the
// model's cost (-1 without a model), its conflict delta and its wall
// time. An Unknown verdict is a budget hit.
func (o *Observer) Iter(call int, lo, hi int64, st sat.Status, cost, conflicts int64, d time.Duration) {
	if o == nil {
		return
	}
	m := o.metricSet()
	m.SolveCalls.Inc()
	m.SolveCallMS.Observe(d.Milliseconds())
	o.Recorder.Record("opt.iter", "call=%d lo=%d hi=%d status=%s cost=%d conflicts=%d",
		call, lo, hi, st, cost, conflicts)
	if st == sat.Unknown {
		m.BudgetHits.Inc()
		o.Recorder.Record("opt.budget", "call=%d interrupted (budget/deadline/cancel)", call)
	}
}

// Bounds observes the proven cost window moving to [l, r].
func (o *Observer) Bounds(l, r int64) {
	if o == nil {
		return
	}
	m := o.metricSet()
	m.BoundLower.Set(l)
	m.BoundUpper.Set(r)
	m.BoundGap.Set(r - l)
	o.Recorder.Record("opt.bounds", "L=%d R=%d gap=%d", l, r, r-l)
	if o.OnImprove != nil {
		o.OnImprove(l, r)
	}
}

// Incumbent observes a new best model of the given cost; initial marks
// the first model of the search.
func (o *Observer) Incumbent(cost int64, initial bool) {
	if o == nil {
		return
	}
	o.metricSet().IncumbentCost.Set(cost)
	if initial {
		o.Recorder.Record("opt.incumbent", "cost=%d (initial model)", cost)
	} else {
		o.Recorder.Record("opt.incumbent", "cost=%d", cost)
	}
}

// Portfolio observes a clause-sharing portfolio of n workers being built.
func (o *Observer) Portfolio(n int) {
	if o == nil {
		return
	}
	o.metricSet().ParallelWorkers.Set(int64(n))
}

// WorkerStart observes a portfolio worker's race leg beginning.
func (o *Observer) WorkerStart(w int) {
	if o == nil {
		return
	}
	o.Recorder.Record("sat.worker", "start worker=%d", w)
}

// WorkerDone observes a portfolio worker's race leg ending; its arguments
// are sat.ParallelOptions.OnWorkerDone's.
func (o *Observer) WorkerDone(w int, st sat.Status, delta sat.Stats, won bool, recovered any) {
	if o == nil {
		return
	}
	m := o.metricSet()
	m.Registry().Counter("satalloc_parallel_worker_conflicts_total",
		"CDCL conflicts per portfolio worker", metrics.Labels{"worker": strconv.Itoa(w)}).Add(delta.Conflicts)
	if w > 0 {
		// Worker 0 is the attached base solver, mirrored live; the helpers
		// carry no hooks, so their effort joins the search counters here,
		// once per race.
		addSearch(m, delta.Conflicts, delta.Decisions, delta.Propagations,
			delta.Restarts, delta.LearntAdded, delta.LearntPruned)
	}
	switch {
	case recovered != nil:
		m.WorkerDeaths.Inc()
		o.Recorder.Record("sat.worker", "panic worker=%d: %v", w, recovered)
	case won:
		m.Registry().Counter("satalloc_parallel_worker_wins_total",
			"races decided per portfolio worker", metrics.Labels{"worker": strconv.Itoa(w)}).Inc()
		o.Recorder.Record("sat.worker", "win worker=%d status=%s conflicts=%d", w, st, delta.Conflicts)
	default:
		o.Recorder.Record("sat.worker", "cancel worker=%d status=%s conflicts=%d", w, st, delta.Conflicts)
	}
}

// Shared observes one race's clause exchange: the delta from the
// portfolio's previous snapshot *last to snap, advancing *last.
func (o *Observer) Shared(last *sat.ParallelStats, snap sat.ParallelStats) {
	if o == nil {
		return
	}
	m := o.metricSet()
	m.SharedExported.Add(snap.Exported - last.Exported)
	m.SharedImported.Add(snap.Imported - last.Imported)
	m.SharedFiltered.Add(snap.Filtered - last.Filtered)
	*last = snap
}

// ProofCheck observes a completed proof certification.
func (o *Observer) ProofCheck(c *proof.Certificate) {
	if o == nil {
		return
	}
	m := o.metricSet()
	m.ProofChecks.Inc()
	m.ProofSteps.Add(int64(c.Steps))
	m.ProofProbes.Add(int64(c.Probes))
	m.ProofCheckMS.Set(c.CheckDuration.Milliseconds())
	o.Recorder.Record("proof.check", "certified logs=%d steps=%d probes=%d root_conflicts=%d in %s",
		len(c.Logs), c.Steps, c.Probes, c.RootConflicts, c.CheckDuration)
}

// ExplainProbe observes one SAT probe of unsat-core extraction: its
// 1-based index, the constraint families it assumed, and its verdict.
func (o *Observer) ExplainProbe(probe, families int, st sat.Status) {
	if o == nil {
		return
	}
	o.Recorder.Record("core.explain", "probe %d: %d families → %s", probe, families, st)
}

// Explained observes a completed unsat-core explanation: its rendering,
// the families in the core, the probes spent, the wall time, and whether
// minimization ran to completion.
func (o *Observer) Explained(core string, size, probes int, d time.Duration, minimal bool) {
	if o == nil {
		return
	}
	m := o.metricSet()
	m.ExplainSolves.Add(int64(probes))
	m.ExplainSize.Set(int64(size))
	if minimal {
		m.ExplainMinimal.Set(1)
	} else {
		m.ExplainMinimal.Set(0)
	}
	m.ExplainMS.Set(d.Milliseconds())
	o.Recorder.Record("core.explain", "%s (minimal=%v, %d probes, %s)", core, minimal, probes, d)
	o.Logf("%s", core)
}
