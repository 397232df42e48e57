package obs

import (
	"errors"
	"testing"
	"time"

	"satalloc/internal/flightrec"
	"satalloc/internal/proof"
	"satalloc/internal/sat"
)

// TestObserverNilIsNoOp: a nil observer, and an observer without
// subscribers, accept every observation and leave a solver's hooks nil,
// so a run without observation pays nothing in the solver.
func TestObserverNilIsNoOp(t *testing.T) {
	observe := func(o *Observer) {
		o.Logf("line %d", 1)
		o.SolveStart("sys", 1, 1)
		o.SolveEnd("optimal", 3, 10)
		o.SolveFailed(errors.New("boom"))
		o.Panic("boom")
		o.Iter(1, -1, -1, sat.Unknown, -1, 10, time.Millisecond)
		o.Bounds(1, 2)
		o.Incumbent(2, true)
		o.Portfolio(2)
		o.WorkerStart(1)
		o.WorkerDone(1, sat.Sat, sat.Stats{Conflicts: 3}, true, nil)
		var last sat.ParallelStats
		o.Shared(&last, sat.ParallelStats{Exported: 4})
		o.ProofCheck(&proof.Certificate{})
		o.ExplainProbe(1, 2, sat.Unsat)
		o.Explained("infeasible: deadline(t0)", 1, 2, time.Millisecond, true)
	}
	for _, o := range []*Observer{nil, {}} {
		s := sat.New()
		o.Attach(s)
		if s.OnProgress != nil || s.OnConflict != nil {
			t.Fatalf("observer %+v installed hooks without a subscriber", o)
		}
		if o.Encoder() != nil {
			t.Fatalf("observer %+v handed out an encode sink without metrics", o)
		}
		observe(o)
	}
	if c := (*Observer)(nil).Copy(); c.Metrics != nil || c.Recorder != nil || c.Progress != nil || c.Log != nil || c.OnImprove != nil {
		t.Fatal("nil observer must copy as the zero observer")
	}
}

// TestObserverAttachInstallsOnlyWhatIsSubscribed: a recorder alone gets
// progress events but no per-conflict hook, which only metrics need.
func TestObserverAttachInstallsOnlyWhatIsSubscribed(t *testing.T) {
	rec := flightrec.New(8)
	s := sat.New()
	(&Observer{Recorder: rec}).Attach(s)
	if s.OnProgress == nil || s.OnConflict != nil {
		t.Fatalf("recorder-only observer: progress hook %v, conflict hook %v", s.OnProgress != nil, s.OnConflict != nil)
	}
	s.OnProgress(sat.Progress{Event: "restart", Conflicts: 7})
	if ev := rec.Snapshot(); len(ev) != 1 || ev[0].Kind != "sat.restart" {
		t.Fatalf("recorded %+v, want one sat.restart", ev)
	}
}
