package metrics

// ParsePrometheus exposes the exposition parser to the external tests
// that drive SolverMetrics through obs.Observer.
var ParsePrometheus = parsePrometheus
