package metrics

// Default bucket layouts for the solver histograms. LBD and backjump
// depth are small-integer distributions with long tails; per-SOLVE-call
// wall time spans microseconds (trivial windows late in the binary
// search) to minutes (the initial unconstrained solve).
var (
	LBDBuckets      = []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	BackjumpBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// SolveCallMSBuckets are milliseconds.
	SolveCallMSBuckets = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}
)

// SolverMetrics bundles the standard metric set of the solve pipeline,
// one series per concern, all registered under the satalloc_ prefix. Its
// one writer is obs.Observer, which maps each pipeline observation onto
// these series. A nil *SolverMetrics is a valid disabled instrument: the
// observer skips it, so the layers below pay one nil check when metrics
// are off — the same contract as obs.Tracer.
//
//satlint:nilsafe
type SolverMetrics struct {
	reg *Registry

	// SAT search counters, mirrored from the solver's cumulative Stats at
	// progress boundaries (restart/reduce/solve entry).
	Conflicts    *Counter
	Decisions    *Counter
	Propagations *Counter
	Restarts     *Counter
	LearntAdded  *Counter
	LearntPruned *Counter
	// Point-in-time search state.
	LearntDB   *Gauge
	TrailDepth *Gauge
	// Per-conflict learning quality.
	LBD      *Histogram
	Backjump *Histogram

	// Binary-search optimizer (opt.Minimize).
	SolveCalls    *Counter
	SolveCallMS   *Histogram
	BoundLower    *Gauge // L: proven lower bound (-1 until known)
	BoundUpper    *Gauge // R: best incumbent cost (-1 until known)
	BoundGap      *Gauge // R-L (-1 until both known)
	IncumbentCost *Gauge // current best model cost, any source (-1 until known)
	BudgetHits    *Counter

	// Propositional encoding (bv bit-blast with structural hashing).
	EncodeGatesRequested *Counter // gate requests made to the hash-consing layer
	EncodeGatesEmitted   *Counter // gates that allocated a fresh variable and clauses
	EncodeGatesFolded    *Counter // gates resolved by constant folding or operand identities
	EncodeGatesReused    *Counter // gates answered from the structural-hashing cache
	EncodeVars           *Gauge   // solver variables after the last bit-blast
	EncodeLiterals       *Gauge   // clause literals after the last bit-blast

	// core.Solve phases.
	SolvesStarted *Counter
	Panics        *Counter

	// Clause-sharing CDCL portfolio (sat.ParallelSolver).
	ParallelWorkers *Gauge   // configured portfolio size (0: sequential)
	SharedExported  *Counter // learnt clauses published to the exchange pool
	SharedImported  *Counter // shared clauses successfully integrated by other workers
	SharedFiltered  *Counter // shared clauses dropped (LBD/length bound, overflow, satisfied)
	WorkerDeaths    *Counter // portfolio workers lost to contained panics

	// Proof checking (internal/proof) and unsat-core explanation.
	ProofChecks    *Counter // proof-log replays completed by the checker
	ProofSteps     *Counter // proof steps replayed (inputs, learns, deletes, probes)
	ProofProbes    *Counter // assumption-refutation probes certified
	ProofCheckMS   *Gauge   // wall time of the last proof check in milliseconds
	ExplainSolves  *Counter // SAT probes spent extracting and minimizing cores
	ExplainSize    *Gauge   // constraint families in the last reported core
	ExplainMinimal *Gauge   // 1 when the last core was proven minimal, else 0
	ExplainMS      *Gauge   // wall time of the last core explanation in milliseconds
}

// NewSolverMetrics registers the standard solver metric set on r. A nil
// registry yields a nil (disabled) *SolverMetrics.
func NewSolverMetrics(r *Registry) *SolverMetrics {
	if r == nil {
		return nil
	}
	m := &SolverMetrics{
		reg:          r,
		Conflicts:    r.Counter("satalloc_sat_conflicts_total", "CDCL conflicts across all SOLVE calls", nil),
		Decisions:    r.Counter("satalloc_sat_decisions_total", "CDCL decisions across all SOLVE calls", nil),
		Propagations: r.Counter("satalloc_sat_propagations_total", "unit propagations across all SOLVE calls", nil),
		Restarts:     r.Counter("satalloc_sat_restarts_total", "solver restarts", nil),
		LearntAdded:  r.Counter("satalloc_sat_learnt_added_total", "learnt clauses recorded", nil),
		LearntPruned: r.Counter("satalloc_sat_learnt_pruned_total", "learnt clauses removed by DB reduction", nil),
		LearntDB:     r.Gauge("satalloc_sat_learnt_db_size", "current learnt-clause database size", nil),
		TrailDepth:   r.Gauge("satalloc_sat_trail_depth", "assigned literals at the last progress boundary", nil),
		LBD:          r.Histogram("satalloc_sat_lbd", "literal block distance of learnt clauses", LBDBuckets, nil),
		Backjump:     r.Histogram("satalloc_sat_backjump_levels", "decision levels undone per conflict", BackjumpBuckets, nil),

		SolveCalls:    r.Counter("satalloc_opt_solve_calls_total", "SOLVE invocations of the binary search", nil),
		SolveCallMS:   r.Histogram("satalloc_opt_solve_call_duration_ms", "wall time per SOLVE call in milliseconds", SolveCallMSBuckets, nil),
		BoundLower:    r.Gauge("satalloc_opt_bound_lower", "binary search proven lower bound L (-1: unknown)", nil),
		BoundUpper:    r.Gauge("satalloc_opt_bound_upper", "binary search incumbent cost R (-1: unknown)", nil),
		BoundGap:      r.Gauge("satalloc_opt_bound_gap", "binary search gap R-L (-1: unknown)", nil),
		IncumbentCost: r.Gauge("satalloc_opt_incumbent_cost", "cost of the best model found so far (-1: none)", nil),
		BudgetHits:    r.Counter("satalloc_opt_budget_hits_total", "SOLVE calls interrupted by a budget or cancellation", nil),

		EncodeGatesRequested: r.Counter("satalloc_encode_gates_requested_total", "gate requests made to the bit-blaster's hash-consing layer", nil),
		EncodeGatesEmitted:   r.Counter("satalloc_encode_gates_emitted_total", "gates emitted as fresh variables and clauses", nil),
		EncodeGatesFolded:    r.Counter("satalloc_encode_gates_folded_total", "gates resolved by constant folding or operand identities", nil),
		EncodeGatesReused:    r.Counter("satalloc_encode_gates_reused_total", "gates answered from the structural-hashing cache", nil),
		EncodeVars:           r.Gauge("satalloc_encode_vars", "solver variables after the last bit-blast", nil),
		EncodeLiterals:       r.Gauge("satalloc_encode_literals", "clause literals after the last bit-blast", nil),

		SolvesStarted: r.Counter("satalloc_core_solves_started_total", "core.Solve pipeline runs started", nil),
		Panics:        r.Counter("satalloc_core_panics_total", "panics contained at the core.Solve boundary", nil),

		ParallelWorkers: r.Gauge("satalloc_parallel_workers", "CDCL portfolio size (0: sequential)", nil),
		SharedExported:  r.Counter("satalloc_parallel_shared_exported_total", "learnt clauses published to the exchange pool", nil),
		SharedImported:  r.Counter("satalloc_parallel_shared_imported_total", "shared clauses integrated by other workers", nil),
		SharedFiltered:  r.Counter("satalloc_parallel_shared_filtered_total", "shared clauses dropped by LBD/length bound, overflow, or root subsumption", nil),
		WorkerDeaths:    r.Counter("satalloc_parallel_worker_deaths_total", "portfolio workers lost to contained panics", nil),

		ProofChecks:    r.Counter("satalloc_proof_checks_total", "proof-log replays completed by the internal checker", nil),
		ProofSteps:     r.Counter("satalloc_proof_steps_total", "proof steps replayed by the checker", nil),
		ProofProbes:    r.Counter("satalloc_proof_probes_total", "assumption-refutation probes certified", nil),
		ProofCheckMS:   r.Gauge("satalloc_proof_check_ms", "wall time of the last proof check in milliseconds", nil),
		ExplainSolves:  r.Counter("satalloc_core_explain_solves_total", "SAT probes spent on unsat-core extraction and minimization", nil),
		ExplainSize:    r.Gauge("satalloc_core_explain_size", "constraint families in the last reported core", nil),
		ExplainMinimal: r.Gauge("satalloc_core_explain_minimal", "1 when the last core was proven minimal, else 0", nil),
		ExplainMS:      r.Gauge("satalloc_core_explain_ms", "wall time of the last core explanation in milliseconds", nil),
	}
	m.BoundLower.Set(-1)
	m.BoundUpper.Set(-1)
	m.BoundGap.Set(-1)
	m.IncumbentCost.Set(-1)
	return m
}

// Registry returns the registry the metrics are registered on (nil on a
// disabled instrument), for the labeled series created on first use.
func (m *SolverMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}
