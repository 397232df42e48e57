package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"satalloc/internal/core"
	"satalloc/internal/obs"
	"satalloc/internal/opt"
	"satalloc/internal/sat"
)

// closedWorkload is a closed-loop workload: one client solving a corpus
// in passes, each op waiting for the previous verdict.
type closedWorkload struct {
	corpus    func(seed int64) ([]instance, error)
	certified bool // Proof and Explain on, certificate checks apply
}

var (
	paperTables = closedWorkload{corpus: paperCorpus}
	certified   = closedWorkload{corpus: certifiedCorpus, certified: true}
)

// config is the solver configuration of every op: sequential search, so
// each pass does the same work.
func (w closedWorkload) config(in instance) core.Config {
	return core.Config{Objective: in.obj, Workers: 1, Proof: w.certified, Explain: w.certified}
}

// counts are the per-instance work counters that must repeat exactly
// across solves of the same instance.
type counts struct {
	vars      int
	literals  int64
	probes    int
	conflicts int64
}

// op is one timed solve, reduced to what the metrics need: a solution
// keeps its proof logs alive, so none is retained past its check.
type op struct {
	inst      int
	start     time.Time // the SolveContext call
	end       time.Time // the verdict checked
	dur       time.Duration
	ok        bool // a checked verdict
	work      counts
	stats     sat.Stats
	satMS     float64 // SOLVE calls answered SAT
	unsatMS   float64 // SOLVE calls answered UNSAT
	unsat     int
	proofMS   float64
	steps     int
	proofed   int // UNSAT probes the certificate certifies
	explainMS float64
	explained int // SAT probes of the unsat-core extraction
	rtaDur    time.Duration
	mem       goMem // allocation and GC deltas across the solve
	traced    bool
	spans     []span // traced ops only
}

// summarize fills the op's counters from its solution.
func (o *op) summarize(sol *core.Solution) {
	o.work = counts{sol.BoolVars, sol.Literals, sol.SolveCalls, sol.Conflicts}
	o.stats = sol.SolverStats
	for _, it := range sol.Iters {
		if it.Status == sat.Unsat {
			o.unsat++
			o.unsatMS += ms(it.Duration)
		} else {
			o.satMS += ms(it.Duration)
		}
	}
	if c := sol.Certificate; c != nil {
		o.proofMS = ms(c.CheckDuration)
		o.steps = c.Steps
		o.proofed = c.Probes
	}
	if sol.Core != nil {
		o.explainMS = ms(sol.Core.Duration)
		o.explained = sol.Core.SolveCalls
	}
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 9

func runClosedLoop(o options, w closedWorkload, rep *report) error {
	// Set-up, setupReps times: generate and load the corpus, then solve
	// the warm-up instance once.
	var insts []instance
	var setups, gens []float64
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		var gen time.Duration
		var err error
		insts, gen, err = loadCorpus(w.corpus, o.seed)
		if err != nil {
			return err
		}
		in := warmupInstance()
		if _, err := core.SolveContext(context.Background(), in.sys, w.config(in)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, ms(gen))
	}
	fmt.Printf("%d instances; set-up %.3f s (median of %d)\n", len(insts), median(setups), setupReps)

	// Passes run until the next one would overrun the window. An untraced
	// run makes at least two, so every instance's counters can be
	// compared; a traced run solves each instance untraced and traced
	// back to back (alternating which goes first), so one pass already
	// yields two solves per instance.
	minPasses := 2
	if o.trace {
		minPasses = 1
	}
	var ops []op
	var passes []float64
	cpu0 := selfCPU()
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass >= minPasses && time.Since(start).Seconds()+median(passes) > o.seconds.Seconds() {
			break
		}
		passStart, first := time.Now(), len(ops)
		for i := range insts {
			if !o.trace {
				ops = append(ops, w.solve(insts, i, false, rep))
				continue
			}
			tracedFirst := (pass+i)%2 == 0
			ops = append(ops, w.solve(insts, i, tracedFirst, rep), w.solve(insts, i, !tracedFirst, rep))
		}
		passes = append(passes, time.Since(passStart).Seconds())
		fmt.Printf("pass %d: %.2f s, geomean %.2f ms/op\n", pass+1, passes[pass], geomean(opMS(ops[first:])))
	}
	wall := time.Since(start)
	cpu := selfCPU() - cpu0
	fmt.Printf("%d passes in %.1f s\n", len(passes), wall.Seconds())
	varying := reportVarying(insts, ops)

	if !o.trace {
		rep.set("setup_s", median(setups))
		closedEndToEnd(insts, ops, rep)
		rep.set("cpu_ms_per_op", ms(cpu)/float64(len(ops)))
		rep.set("rss_peak_mb", selfPeakRSSMB())
		rep.okFrac()
		return nil
	}
	rep.set("workload.gen_ms", median(gens))
	rep.set("work.varying_instances", float64(varying))
	rep.absent(serveLayer)
	closedLayers(w, ops, rep)
	return nil
}

// solve runs one op and checks its verdict.
func (w closedWorkload) solve(insts []instance, i int, traced bool, rep *report) op {
	in := insts[i]
	cfg := w.config(in)
	o := op{inst: i, traced: traced}
	var buf spanBuffer
	var root, solveSpan *obs.Span // nil spans record nothing
	if traced {
		root = obs.NewTracer(&buf).Start("Op")
		solveSpan = root.Child("SolveContext")
		cfg.Trace = solveSpan
	}
	m0 := readGoMem()
	o.start = time.Now()
	sol, err := core.SolveContext(context.Background(), in.sys, cfg)
	o.dur = time.Since(o.start)
	m1 := readGoMem()
	o.mem = goMem{m1.allocBytes - m0.allocBytes, m1.gcCycles - m0.gcCycles}
	solveSpan.End()
	rep.attempted++
	vsp := root.Child("RTAVerify")
	rtaStart := time.Now()
	mismatch, failed := w.check(in, sol, err)
	o.rtaDur = time.Since(rtaStart)
	vsp.End()
	root.End()
	if failed {
		rep.fail(mismatch)
		if mismatch == "" {
			fmt.Printf("FAILED: %s: %v\n", in.name, err)
		}
	} else {
		o.ok = true
		o.summarize(sol)
	}
	if traced {
		o.spans = parseSpans(buf.lines)
	}
	o.end = time.Now()
	return o
}

// check validates one verdict: the expected outcome where one is known,
// checkOptimal for optimal verdicts, and — on certified runs — a replayed
// proof certificate and, for infeasible specs, an unsat core. It returns a mismatch description for
// wrong verdicts and failed for any op without a checked verdict.
func (w closedWorkload) check(in instance, sol *core.Solution, err error) (mismatch string, failed bool) {
	wrong := func(format string, args ...any) (string, bool) {
		return in.name + ": " + fmt.Sprintf(format, args...), true
	}
	if err != nil {
		return "", true
	}
	if sol.Status != opt.Optimal && sol.Status != opt.Infeasible {
		return "", true // budget or cancellation: no verdict
	}
	got := verdict{Feasible: sol.Status == opt.Optimal, Cost: sol.Cost}
	if in.want != nil && got != *in.want {
		return wrong("got %s, want %s", got, *in.want)
	}
	if got.Feasible {
		if msg := in.checkOptimal(sol.Allocation, sol.Cost); msg != "" {
			return wrong("%s", msg)
		}
	}
	if !w.certified {
		return "", false
	}
	c := sol.Certificate
	if c == nil || len(c.Logs) == 0 || len(c.Summaries) != len(c.Logs) {
		return wrong("no replayed certificate")
	}
	if !got.Feasible {
		if c.Probes+c.RootConflicts == 0 {
			return wrong("certificate refutes nothing")
		}
		if sol.Core == nil || sol.Core.Feasible || len(sol.Core.Groups) == 0 {
			return wrong("infeasible without an unsat core")
		}
	}
	return "", false
}

// reportVarying compares every instance's work counters across its
// solves, prints each instance whose counters differ, and returns how
// many do.
func reportVarying(insts []instance, ops []op) int {
	seen := map[int][]counts{}
	for _, o := range ops {
		if o.ok {
			seen[o.inst] = append(seen[o.inst], o.work)
		}
	}
	n := 0
	for i, in := range insts {
		cs := seen[i]
		same := true
		for _, c := range cs {
			same = same && c == cs[0]
		}
		if same {
			continue
		}
		n++
		var b strings.Builder
		for _, c := range cs {
			fmt.Fprintf(&b, " [vars %d literals %d probes %d conflicts %d]", c.vars, c.literals, c.probes, c.conflicts)
		}
		fmt.Printf("varying work: %s:%s\n", in.name, b.String())
	}
	fmt.Printf("work counters repeat on %d of %d instances\n", len(insts)-n, len(insts))
	return n
}

// closedEndToEnd sets the closed-loop workloads' end-to-end metrics from
// the untraced ops. Per-instance times are first reduced to their median
// across passes, so every instance weighs the same.
func closedEndToEnd(insts []instance, ops []op, rep *report) {
	byInst := make([][]float64, len(insts))
	var total time.Duration
	for _, o := range ops {
		byInst[o.inst] = append(byInst[o.inst], ms(o.dur))
		total += o.dur
	}
	meds := make([]float64, len(insts))
	for i, xs := range byInst {
		meds[i] = median(xs)
	}
	rep.set("solves_per_s", float64(len(ops))/total.Seconds())
	rep.set("solve_ms_geomean", geomean(meds))
	rep.set("solve_ms_p50", quantile(meds, 0.5))
	rep.set("solve_ms_p90", quantile(meds, 0.9))
}

// closedLayers sets the per-layer metrics of a traced run: solver-reported
// counters from the untraced solves, span times from the traced ones,
// all as means per op.
func closedLayers(w closedWorkload, ops []op, rep *report) {
	var plain, traced []op
	for _, o := range ops {
		switch {
		case !o.ok:
		case o.traced:
			traced = append(traced, o)
		default:
			plain = append(plain, o)
		}
	}
	n := float64(len(plain))
	var vars, lits, probes, unsat, satMS, unsatMS float64
	var st sat.Stats
	var rtaMS, allocMB, gcs float64
	var proofMS, proofSteps, proofProbes, explainMS, explainProbes float64
	var untracedMS float64
	for _, o := range plain {
		vars += float64(o.work.vars)
		lits += float64(o.work.literals)
		probes += float64(o.work.probes)
		unsat += float64(o.unsat)
		satMS += o.satMS
		unsatMS += o.unsatMS
		st.Conflicts += o.stats.Conflicts
		st.Decisions += o.stats.Decisions
		st.Propagations += o.stats.Propagations
		st.Restarts += o.stats.Restarts
		st.LearntAdded += o.stats.LearntAdded
		st.LearntPruned += o.stats.LearntPruned
		rtaMS += ms(o.rtaDur)
		allocMB += float64(o.mem.allocBytes) / (1 << 20)
		gcs += float64(o.mem.gcCycles)
		proofMS += o.proofMS
		proofSteps += float64(o.steps)
		proofProbes += float64(o.proofed)
		explainMS += o.explainMS
		explainProbes += float64(o.explained)
		untracedMS += ms(o.dur)
	}
	rep.set("bv.vars", vars/n)
	rep.set("bv.literals", lits/n)
	rep.set("opt.probes", probes/n)
	rep.set("opt.unsat_probes", unsat/n)
	rep.set("sat.sat_probe_ms", satMS/n)
	rep.set("sat.unsat_probe_ms", unsatMS/n)
	rep.set("sat.conflicts", float64(st.Conflicts)/n)
	rep.set("sat.decisions", float64(st.Decisions)/n)
	rep.set("sat.propagations", float64(st.Propagations)/n)
	rep.set("sat.props_per_ms", frac(float64(st.Propagations), satMS+unsatMS))
	rep.set("sat.restarts", float64(st.Restarts)/n)
	rep.set("sat.learnt_pruned_frac", frac(float64(st.LearntPruned), float64(st.LearntAdded)))
	rep.set("rta.verify_ms", rtaMS/n)
	rep.set("go.alloc_mb_per_op", allocMB/n)
	rep.set("go.gc_cycles_per_op", gcs/n)
	rep.set("proof.check_ms", proofMS/n)
	rep.set("proof.steps", proofSteps/n)
	rep.set("proof.probes", proofProbes/n)
	rep.set("opt.explain_ms", explainMS/n)
	rep.set("opt.explain_probes", explainProbes/n)

	// The generator's lateness: in a closed loop, from one op's checked
	// verdict to the next call.
	var late []float64
	for k := 1; k < len(ops); k++ {
		late = append(late, ms(ops[k].start.Sub(ops[k-1].end)))
	}
	rep.set("gen.late_ms_p99", quantile(late, 0.99))

	// Span-derived metrics and the self-time table, from the traced ops.
	tab := newSelfTable()
	var tracedMS, requested, reused float64
	for _, o := range traced {
		tab.add(o.spans)
		tracedMS += ms(o.dur)
		for _, s := range o.spans {
			if s.Name == "BitBlast" {
				requested += s.num("gates_requested")
				reused += s.num("gates_reused")
			}
		}
	}
	nt := float64(len(traced))
	rep.set("encode.ms", tab.total["Encode"]/nt)
	rep.set("ir.triplet_ms", tab.total["Triplet"]/nt)
	rep.set("bv.blast_ms", tab.total["BitBlast"]/nt)
	rep.set("bv.gates_reused_frac", frac(reused, requested))
	rep.set("opt.decode_verify_ms", (tab.total["Decode"]+tab.total["Verify"])/nt)
	overhead := tracedMS/untracedMS*n/nt - 1
	rep.set("obs.trace_overhead_frac", overhead)
	tab.print(len(traced))
	fmt.Printf("SolveContext: traced %.3f ms/op, untraced %.3f ms/op; tracing overhead %+.2f%%\n",
		tab.total["SolveContext"]/nt, untracedMS/n, 100*overhead)
}

// opMS returns the ops' durations in ms.
func opMS(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(o.dur)
	}
	return out
}
