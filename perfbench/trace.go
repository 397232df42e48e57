package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// spanBuffer keeps a tracer's JSONL records in memory; they are parsed
// after the op, so no trace I/O happens while it runs.
type spanBuffer struct{ lines [][]byte }

func (b *spanBuffer) Write(p []byte) (int, error) {
	b.lines = append(b.lines, append([]byte(nil), p...))
	return len(p), nil
}

// span is one record of the obs JSONL schema.
type span struct {
	Name    string         `json:"span"`
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs"`
}

// num returns a numeric attribute, or 0.
func (s span) num(key string) float64 {
	v, _ := s.Attrs[key].(float64)
	return v
}

// phase folds indexed span names ("Solve[3]") into their phase.
func (s span) phase() string {
	if i := strings.IndexByte(s.Name, '['); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// parseSpans decodes JSONL span records.
func parseSpans(lines [][]byte) []span {
	var spans []span
	for _, l := range lines {
		var s span
		if json.Unmarshal(l, &s) == nil {
			spans = append(spans, s)
		}
	}
	return spans
}

// moduleOf maps a span phase to the module that does its work. The
// benchmark's own spans are Op (its bookkeeping between calls), the
// SolveContext call itself (core's own work: validation, the flight
// recorder, its RTA of the result) and RTAVerify (the benchmark-side
// rta.Analyze check).
func moduleOf(phase string) string {
	switch phase {
	case "Op":
		return "bench"
	case "SolveContext":
		return "core"
	case "Encode":
		return "encode"
	case "Triplet":
		return "ir"
	case "BitBlast":
		return "bv"
	case "Minimize", "Decode", "Verify", "ExplainInfeasible":
		return "opt"
	case "Solve", "Worker":
		return "sat"
	case "ProofCheck":
		return "proof"
	case "RTAVerify":
		return "rta"
	case "Attempt":
		return "serve"
	}
	return phase
}

// selfTable accumulates self time per module (a span's duration minus the
// part its children cover) and total time per span phase, in ms.
type selfTable struct {
	self  map[string]float64
	total map[string]float64
}

func newSelfTable() *selfTable {
	return &selfTable{self: map[string]float64{}, total: map[string]float64{}}
}

// add folds one op's span tree into the table. Children of one span run
// one after another (every solve is sequential), so their durations add.
func (t *selfTable) add(spans []span) {
	child := map[int64]int64{}
	for _, s := range spans {
		child[s.Parent] += s.DurUS
	}
	for _, s := range spans {
		self := s.DurUS - child[s.ID]
		if self < 0 {
			self = 0
		}
		t.self[moduleOf(s.phase())] += float64(self) / 1000
		t.total[s.phase()] += float64(s.DurUS) / 1000
	}
}

// print writes the self-time table: per module, ms per op and the share
// of the summed self time.
func (t *selfTable) print(ops int) {
	var sum float64
	mods := make([]string, 0, len(t.self))
	for m, v := range t.self {
		mods = append(mods, m)
		sum += v
	}
	sort.Slice(mods, func(i, j int) bool { return t.self[mods[i]] > t.self[mods[j]] })
	fmt.Printf("self time per module over %d traced ops:\n", ops)
	fmt.Printf("  %-14s %12s %7s\n", "module", "ms/op", "share")
	for _, m := range mods {
		fmt.Printf("  %-14s %12.3f %6.1f%%\n", m, t.self[m]/float64(ops), 100*frac(t.self[m], sum))
	}
	fmt.Printf("  %-14s %12.3f\n", "sum", sum/float64(ops))
}
