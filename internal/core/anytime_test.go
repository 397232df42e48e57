package core

import (
	"context"
	"sync/atomic"
	"testing"

	"satalloc/internal/obs"
	"satalloc/internal/opt"
	"satalloc/internal/rta"
)

// TestCancelMidSearchDeliversIncumbent pins the path the allocation
// daemon depends on for budget-halted jobs: a context cancelled *after*
// the binary search has a model but before it proves optimality must
// surface through SolveContext as opt.Feasible carrying the verified
// incumbent and a coherent proven window — never an error, never an empty
// Aborted. The OnImprove hook doubles as the cancellation trigger: it
// fires exactly when the first model lands, which is the earliest moment
// an incumbent exists to deliver.
func TestCancelMidSearchDeliversIncumbent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys := smallSystem()

	var improvements atomic.Int64
	sol, err := SolveContext(ctx, sys, Config{
		Objective: MinimizeTRT,
		Observer: &obs.Observer{OnImprove: func(lower, upper int64) {
			if lower > upper {
				t.Errorf("OnImprove window inverted: [%d,%d]", lower, upper)
			}
			improvements.Add(1)
			cancel() // kill the search the moment an incumbent exists
		}},
	})
	if err != nil {
		t.Fatalf("mid-search cancellation must degrade, not error: %v", err)
	}
	if improvements.Load() == 0 {
		t.Fatal("OnImprove never fired — the trigger tested nothing")
	}
	if sol.Status != opt.Feasible {
		// The race between cancel and the final window collapse can, on a
		// fast box, let the search finish optimally before the solver polls
		// the context. Optimal is then correct, but the degraded path went
		// untested — fail loudly only on genuinely wrong outcomes.
		if sol.Status == opt.Optimal {
			t.Skip("search finished before the cancellation was observed")
		}
		t.Fatalf("status %v after mid-search cancel, want feasible", sol.Status)
	}
	if !sol.Aborted || !sol.Feasible {
		t.Fatalf("feasible-with-gap result flags incoherent: aborted=%v feasible=%v", sol.Aborted, sol.Feasible)
	}
	if sol.Allocation == nil {
		t.Fatal("budget-halted solve lost its incumbent allocation")
	}
	if sol.LowerBound > sol.Cost {
		t.Fatalf("proven lower bound %d exceeds incumbent cost %d", sol.LowerBound, sol.Cost)
	}
	// The incumbent is a real deployment, not a stale decode: the
	// independent analyzer must accept it.
	if r := rta.Analyze(sys, sol.Allocation); !r.Schedulable {
		t.Fatalf("incumbent rejected by response-time analysis: %v", r.Violations)
	}
	if sol.Analysis == nil || !sol.Analysis.Schedulable {
		t.Fatal("solution missing the attached response-time analysis")
	}
}

// TestOnImproveSeesMonotoneWindows: across a full (uncancelled) solve the
// OnImprove stream must be monotone — lower bounds never move down, upper
// bounds never move up — because watchers (the daemon's streaming route)
// render it as a progress bar.
func TestOnImproveSeesMonotoneWindows(t *testing.T) {
	prevLo := int64(-1)
	prevHi := int64(-1 << 62)
	calls := 0
	sol, err := Solve(smallSystem(), Config{
		Objective: MinimizeTRT,
		Observer: &obs.Observer{OnImprove: func(lower, upper int64) {
			calls++
			if prevHi != int64(-1<<62) && upper > prevHi {
				t.Errorf("upper bound went up: %d after %d", upper, prevHi)
			}
			if lower < prevLo {
				t.Errorf("lower bound went down: %d after %d", lower, prevLo)
			}
			prevLo, prevHi = lower, upper
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnImprove never fired on a feasible instance")
	}
	if sol.Status != opt.Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if prevHi != sol.Cost {
		t.Fatalf("last streamed upper bound %d != final cost %d", prevHi, sol.Cost)
	}
}
