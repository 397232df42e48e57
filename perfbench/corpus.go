package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"satalloc/internal/baseline"
	"satalloc/internal/core"
	"satalloc/internal/encode"
	"satalloc/internal/model"
	"satalloc/internal/rta"
	"satalloc/internal/workload"
)

// verdict is an expected outcome: infeasible, or feasible at an optimal
// cost.
type verdict struct {
	Feasible bool  `json:"feasible"`
	Cost     int64 `json:"cost"`
}

func (v verdict) String() string {
	if !v.Feasible {
		return "infeasible"
	}
	return fmt.Sprintf("cost %d", v.Cost)
}

// instance is one corpus entry of a closed-loop workload.
type instance struct {
	name string
	sys  *model.System
	obj  core.Objective
	want *verdict // nil: no reference; proof and RTA checks still apply
}

// checkOptimal checks an optimal verdict independently of the solver: the
// allocation must pass the response-time analysis, and its cost,
// recomputed with the encoder options core.SolveContext derives for the
// objective, must be the reported one. It returns "" or the mismatch.
func (in instance) checkOptimal(a *model.Allocation, cost int64) string {
	if a == nil {
		return "optimal verdict without an allocation"
	}
	if res := rta.Analyze(in.sys, a); !res.Schedulable {
		return "allocation fails RTA: " + strings.Join(res.Violations, "; ")
	}
	if c := baseline.Objective(in.sys, a, encode.Options{Objective: in.obj, ObjectiveMedium: -1}); c != cost {
		return fmt.Sprintf("allocation costs %d, reported %d", c, cost)
	}
	return ""
}

// paperCorpus builds the 14 scaled-mode instances of the paper's Tables
// 1–4, exactly as bench_test.go and internal/experiments build them. The
// expected optima are the scaled-mode costs of EXPERIMENTS.md; that file
// lists no scaled Table-3 costs, so those four are the optima the solver
// proves at this revision (14 tasks is the Table-1 ring instance again).
func paperCorpus(int64) ([]instance, error) {
	want := func(c int64) *verdict { return &verdict{Feasible: true, Cost: c} }
	insts := []instance{
		{"t1-ring-14", workload.Partition(workload.T43(), 14), core.MinimizeTRT, want(18)},
		{"t1-can-12", workload.Partition(workload.T43CAN(), 12), core.MinimizeBusUtilization, want(82)},
	}
	for i, n := range []int{4, 6, 8, 10} {
		o := workload.T43Options()
		o.Tasks = 12
		o.Chains = 3
		o.Restricted = 2
		o.SeparatedPairs = 1
		insts = append(insts, instance{fmt.Sprintf("t2-ecus-%d", n),
			workload.Populate(workload.RingArchitecture(n), o), core.MinimizeTRT,
			want([]int64{10, 14, 20, 24}[i])})
	}
	for i, n := range []int{5, 8, 11, 14} {
		insts = append(insts, instance{fmt.Sprintf("t3-tasks-%d", n),
			workload.Partition(workload.T43(), n), core.MinimizeTRT,
			want([]int64{16, 18, 18, 18}[i])})
	}
	t4 := func(arch *model.System) *model.System {
		return workload.Partition(workload.HierarchicalT43(arch), 10)
	}
	insts = append(insts,
		instance{"t4-arch-a", t4(workload.ArchitectureA()), core.MinimizeSumTRT, want(24)},
		instance{"t4-arch-b", t4(workload.ArchitectureB()), core.MinimizeSumTRT, want(30)},
		instance{"t4-arch-c", t4(workload.ArchitectureC()), core.MinimizeSumTRT, want(20)},
		instance{"t4-arch-c-can", workload.SwapMediumToCAN(t4(workload.ArchitectureC()), 1), core.MinimizeSumTRT, want(8)},
	)
	return insts, nil
}

// warmupInstance is the instance every workload solves once during
// set-up, so the first timed op does not pay the process's lazy set-up
// (heap growth, first-touch page faults): the 10-task partition of the
// [5]-shaped set on the 8-ECU ring, which no workload measures.
func warmupInstance() instance {
	return instance{"warmup-t43-10", workload.Partition(workload.T43(), 10), core.MinimizeTRT, nil}
}

// Certified corpus shape: rings of 3 ECUs × 6 tasks and of 4 ECUs × 8
// tasks, in the workgen -kind ring shape.
const (
	smallRings = 100
	largeRings = 20
)

// ring builds one workgen -kind ring instance.
func ring(ecus, tasks int, seed int64) *model.System {
	o := workload.T43Options()
	o.Seed = seed
	o.Tasks = tasks
	o.Chains = tasks / 4
	o.Restricted = tasks / 8
	o.SeparatedPairs = tasks / 16
	o.ForcedRemoteChains = o.Chains / 2
	sys := workload.Populate(workload.RingArchitecture(ecus), o)
	sys.Name = ringName(ecus, tasks, seed)
	return sys
}

func ringName(ecus, tasks int, seed int64) string {
	return fmt.Sprintf("ring%dx%d-s%d", ecus, tasks, seed)
}

// smallRingSeed is the generator seed of the i-th (0-based) 3×6 ring of
// the corpus for benchmark seed s; seed 1 covers generator seeds 1..100.
func smallRingSeed(s int64, i int) int64 { return (s-1)*smallRings + int64(i) + 1 }

// certifiedCorpus builds the ring corpus: smallRings 3×6 rings drawn by
// the seed and largeRings 4×8 rings that are the same at every seed
// (generator seeds 1..largeRings). The 4×8 rings are the slowest, so they
// set solve_ms_p90; fixing them keeps that tail from changing with the
// seed, and keeps the instances known to vary between solves (seeds 13
// and 16) in every run. At the default seed every 3×6 ring carries the
// exhaustive-oracle verdict from reference.json.
func certifiedCorpus(seed int64) ([]instance, error) {
	var ref map[string]verdict
	if seed == defaultSeed {
		var err error
		if ref, err = loadReference(); err != nil {
			return nil, err
		}
	}
	var insts []instance
	add := func(ecus, tasks int, gen int64) {
		sys := ring(ecus, tasks, gen)
		in := instance{name: sys.Name, sys: sys, obj: core.MinimizeTRT}
		if v, ok := ref[sys.Name]; ok {
			in.want = &v
		}
		insts = append(insts, in)
	}
	for i := 0; i < smallRings; i++ {
		add(3, 6, smallRingSeed(seed, i))
	}
	for i := 0; i < largeRings; i++ {
		add(4, 8, int64(i)+1)
	}
	return insts, nil
}

// loadCorpus generates a corpus and reads every instance back through
// the spec format, as a user handing spec files to the allocator would.
// It returns the instances and the time spent.
func loadCorpus(gen func(int64) ([]instance, error), seed int64) ([]instance, time.Duration, error) {
	start := time.Now()
	insts, err := gen(seed)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	for i := range insts {
		buf.Reset()
		if err := core.WriteSpec(&buf, insts[i].sys); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", insts[i].name, err)
		}
		sys, err := core.ReadSpec(&buf)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", insts[i].name, err)
		}
		if err := sys.Validate(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", insts[i].name, err)
		}
		insts[i].sys = sys
	}
	return insts, time.Since(start), nil
}

// referenceEntry is one line of reference.json.
type referenceEntry struct {
	Name     string `json:"name"`
	Feasible bool   `json:"feasible"`
	Cost     int64  `json:"cost"`
	Explored int64  `json:"explored"`
}

//go:embed reference.json
var referenceJSON []byte

// loadReference maps each default-seed 3×6 ring's name to its oracle
// verdict from reference.json.
func loadReference() (map[string]verdict, error) {
	var entries []referenceEntry
	if err := json.Unmarshal(referenceJSON, &entries); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	ref := map[string]verdict{}
	for _, e := range entries {
		ref[e.Name] = verdict{Feasible: e.Feasible, Cost: e.Cost}
	}
	if len(ref) != smallRings {
		return nil, fmt.Errorf("reference.json: %d entries, want %d", len(ref), smallRings)
	}
	return ref, nil
}

// writeReference runs the exhaustive oracle (baseline.Exhaustive, which
// shares no code with the SAT pipeline beyond the model and the RTA) over
// the default-seed 3×6 rings and writes their verdicts.
func writeReference(path string) error {
	var entries []referenceEntry
	for i := 0; i < smallRings; i++ {
		sys := ring(3, 6, smallRingSeed(defaultSeed, i))
		start := time.Now()
		r := baseline.Exhaustive(sys, encode.Options{Objective: encode.MinimizeTRT, ObjectiveMedium: -1}, 0)
		e := referenceEntry{Name: sys.Name, Feasible: r.Feasible, Explored: r.Explored}
		if r.Feasible {
			e.Cost = r.Cost
		}
		fmt.Fprintf(os.Stderr, "%s: %s (%d explored, %v)\n",
			e.Name, verdict{e.Feasible, e.Cost}, e.Explored, time.Since(start).Round(time.Millisecond))
		entries = append(entries, e)
	}
	b, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
