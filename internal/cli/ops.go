package cli

import (
	"flag"
	"fmt"
	"os"

	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/metrics/ophttp"
	"satalloc/internal/obs"
)

// Ops carries the -ops-addr flag and, once Start ran, the live
// instruments behind the ops HTTP listener. With the flag unset every
// instrument stays nil, which downstream layers treat as "metrics
// disabled" — the observer built from the zero Ops costs nil checks only.
type Ops struct {
	// Addr is the -ops-addr value; empty disables the listener.
	Addr string

	// Created by Start when the listener is enabled; nil otherwise.
	metrics  *metrics.SolverMetrics
	recorder *flightrec.Recorder
	srv      *ophttp.Server
}

// AddOpsFlags registers -ops-addr on the flag set and returns the Ops it
// populates after fs.Parse.
func AddOpsFlags(fs *flag.FlagSet) *Ops {
	o := &Ops{}
	fs.StringVar(&o.Addr, "ops-addr", "",
		"serve /metrics, /healthz, /progress, /explain, /debug/flightrec and /debug/pprof on this host:port (empty: off)")
	return o
}

// Start brings up the ops listener when -ops-addr was given, creating the
// metrics registry, the solver instrument set, and the flight recorder,
// and announces the bound address on stderr (":0" picks a free port; the
// announcement is how scripts discover it). Without the flag it is a
// no-op leaving every instrument nil.
func (o *Ops) Start(component string) error {
	if o.Addr == "" {
		return nil
	}
	reg := metrics.New()
	o.metrics = metrics.NewSolverMetrics(reg)
	o.recorder = flightrec.New(flightrec.DefaultCapacity)
	srv, err := ophttp.Start(o.Addr, ophttp.Options{
		Registry:  reg,
		Solver:    o.metrics,
		Recorder:  o.recorder,
		Component: component,
	})
	if err != nil {
		return err
	}
	o.srv = srv
	fmt.Fprintf(os.Stderr, "%s: ops listening on http://%s\n", component, srv.Addr())
	return nil
}

// Observer builds the one observer a CLI threads through its solves over
// the ops instruments (nil while the listener is off); the caller adds
// the progress printer and log sink it wants. Call it after Start.
func (o *Ops) Observer() *obs.Observer {
	return &obs.Observer{Metrics: o.metrics, Recorder: o.recorder}
}

// PublishExplain exposes v on the ops listener's /explain route. A no-op
// when the listener is off, so callers publish unconditionally.
func (o *Ops) PublishExplain(v any) {
	if o == nil || o.srv == nil {
		return
	}
	o.srv.PublishExplain(v)
}

// Close stops the listener, reporting a serve-loop failure on stderr
// (best-effort: the solve's result has already been printed by then).
func (o *Ops) Close(component string) {
	if o == nil || o.srv == nil {
		return
	}
	if err := o.srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: ops listener: %v\n", component, err)
	}
}
