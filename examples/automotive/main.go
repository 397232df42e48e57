// Automotive: the paper's motivating scenario — an industrial-size task
// set on a heterogeneous hierarchical architecture (architecture C of
// Figure 2, with the upper bus swapped for CAN as in §6), allocated
// optimally, then cross-checked by discrete-event simulation.
//
//	go run ./examples/automotive
package main

import (
	"fmt"
	"log"

	"satalloc/internal/core"
	"satalloc/internal/model"
	"satalloc/internal/obs"
	"satalloc/internal/rta"
	"satalloc/internal/sim"
	"satalloc/internal/workload"
)

func main() {
	// Architecture C: two buses sharing application ECU 0 as the gateway;
	// the upper bus becomes CAN (heterogeneous media, as in §6).
	arch := workload.SwapMediumToCAN(workload.ArchitectureC(), 1)
	sys := workload.Partition(workload.HierarchicalT43(arch), 14)

	fmt.Printf("System %q: %d ECUs, %d media (%s + %s), %d tasks, %d messages\n\n",
		sys.Name, len(sys.ECUs), len(sys.Media),
		sys.Media[0].Kind, sys.Media[1].Kind, len(sys.Tasks), len(sys.Messages))

	sol, err := core.Solve(sys, core.Config{
		Objective: core.MinimizeSumTRT,
		Observer: &obs.Observer{Log: func(format string, args ...any) {
			fmt.Printf("  [search] "+format+"\n", args...)
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if !sol.Feasible {
		log.Fatal("no schedulable allocation exists")
	}

	fmt.Printf("\nProven-optimal ΣTRT: %d ticks (%d SOLVE calls, %d vars, %v)\n\n",
		sol.Cost, sol.SolveCalls, sol.BoolVars, sol.Duration)

	// Per-ECU deployment summary.
	byECU := map[int][]string{}
	for _, t := range sys.Tasks {
		p := sol.Allocation.TaskECU[t.ID]
		byECU[p] = append(byECU[p], t.Name)
	}
	for _, e := range sys.ECUs {
		if tasks, ok := byECU[e.ID]; ok {
			fmt.Printf("  %-4s: %v\n", e.Name, tasks)
		}
	}

	// Validate the analytical bounds against the discrete-event simulator:
	// observed worst-case responses must stay within the analyzed ones.
	fmt.Println("\nSimulation cross-check (per-ECU preemptive scheduling):")
	for _, e := range sys.ECUs {
		obs := sim.SimulateECU(sys, sol.Allocation, e.ID, 20000)
		for id, o := range obs {
			bound := sol.Analysis.TaskResponse[id]
			status := "OK"
			if o.MaxResponse > bound {
				status = "VIOLATION"
			}
			fmt.Printf("  %-6s on %-4s: simulated %3d ≤ analyzed %3d  %s\n",
				sys.TaskByID(id).Name, e.Name, o.MaxResponse, bound, status)
		}
	}
	for _, med := range sys.Media {
		var obs map[int]*sim.MsgObservation
		if med.Kind == model.TokenRing {
			obs = sim.SimulateTokenRing(sys, sol.Allocation, med.ID, 20000)
		} else {
			obs = sim.SimulatePriorityBus(sys, sol.Allocation, med.ID, 20000)
		}
		for id, o := range obs {
			if o.Frames == 0 {
				continue
			}
			// The simulator releases each stream J ticks early (worst-case
			// arrival jitter), so the observed figure includes the frame's
			// own inherited jitter, which the per-hop bound w excludes: the
			// sound comparison is observed ≤ w + J.
			r := sol.Analysis.MsgResponse[[2]int{id, med.ID}]
			hop := 0
			for i, k := range sol.Allocation.Route[id] {
				if k == med.ID {
					hop = i
				}
			}
			bound := r + rta.HopJitter(sys, sol.Allocation, id, hop)
			status := "OK"
			if o.MaxResponse > bound {
				status = "VIOLATION"
			}
			fmt.Printf("  %-6s on %-9s: simulated %3d ≤ analyzed %3d (+jitter)  %s\n",
				sys.MessageByID(id).Name, med.Name, o.MaxResponse, bound, status)
		}
	}
}
