// Package serve is the allocation daemon's engine: an HTTP/JSON job API
// over a bounded worker pool that runs the solve pipeline as a
// fault-tolerant service. Its contract is that every accepted job
// reaches exactly one terminal state — done, cancelled, or failed — no
// matter what happens in between: solver panics are contained and
// retried with jittered backoff, per-job deadlines and conflict budgets
// degrade to the anytime incumbent instead of hanging, SIGTERM drains
// gracefully, and a kill -9 is repaired on restart by replaying the
// append-only job journal. Admission control (queue caps, 429 with
// Retry-After) keeps the pool from being buried, and a spec-hash cache
// answers repeated submissions of deterministic verdicts without
// solving again.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"satalloc/internal/core"
	"satalloc/internal/faultinject"
	"satalloc/internal/metrics"
	"satalloc/internal/obs"
)

// Options configures a Server. DataDir is required; everything else has
// a serviceable default.
type Options struct {
	// Pool is the worker count (default 2). Each worker runs one solve at
	// a time.
	Pool int
	// QueueCap bounds the admission queue (default 64); submissions
	// beyond it are rejected with 429 and a Retry-After hint.
	QueueCap int
	// JobTimeout bounds each solve attempt's wall clock (0 = unlimited);
	// on expiry the job degrades to its anytime incumbent.
	JobTimeout time.Duration
	// ConflictBudget bounds each attempt's SAT conflicts per SOLVE call
	// (0 = unlimited).
	ConflictBudget int64
	// SolveWorkers is the per-job CDCL portfolio size (≤ 1 keeps the
	// sequential solver — the right choice when Pool provides the
	// parallelism).
	SolveWorkers int
	// MaxAttempts caps how often a panic-killed job is retried, counting
	// the first attempt (default 3).
	MaxAttempts int
	// RetryBase/RetryMax shape the jittered exponential backoff between
	// attempts (defaults 100ms and 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// DataDir holds the job journal and panic repro bundles. Required.
	DataDir string
	// Metrics is the service instrument; nil gets a private throwaway
	// registry so internal accounting always works.
	Metrics *Metrics
	// Observer is threaded into every solve (shared across jobs — the ops
	// /progress view shows the currently loudest solve); each attempt
	// runs on a copy whose OnImprove feeds the job's watchers.
	Observer *obs.Observer
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

func (o *Options) defaults() error {
	if o.DataDir == "" {
		return errors.New("serve: Options.DataDir is required")
	}
	if o.Pool <= 0 {
		o.Pool = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = NewMetrics(metrics.New())
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// Server is the running service. Create with New, mount with Register,
// stop with Drain (graceful) or Close (hard, for tests).
type Server struct {
	o Options
	m *Metrics

	journal *journal
	queue   chan *Job
	seq     atomic.Int64
	pending atomic.Int64

	//satlint:lock serve.jobs
	mu   sync.Mutex
	jobs map[string]*Job

	//satlint:lock serve.cache
	cacheMu  sync.Mutex
	cache    map[string]*Result
	cacheErr error // first cache fault, surfaced via Health until restart

	draining atomic.Bool
	// solveCtx cancels in-flight solves (drain's budget-halt lever);
	// workCtx ends the worker goroutines themselves.
	solveCtx    context.Context
	solveCancel context.CancelFunc
	workCtx     context.Context
	workCancel  context.CancelFunc
	wg          sync.WaitGroup
}

// New opens (and replays) the journal under o.DataDir, re-enqueues the
// jobs a previous process accepted but never finished, and starts the
// worker pool.
func New(o Options) (*Server, error) {
	if err := o.defaults(); err != nil {
		return nil, err
	}
	jnl, st, err := openJournal(o.DataDir, o.Metrics)
	if err != nil {
		return nil, err
	}
	s := &Server{
		o: o, m: o.Metrics, journal: jnl,
		queue: make(chan *Job, o.QueueCap),
		jobs:  map[string]*Job{},
		cache: st.cache,
	}
	s.seq.Store(st.nextSeq - 1)
	//satlint:ignore ctxflow process-root lifecycle contexts: the server owns its workers' lifetime; cancellation is Drain/Close, not a caller ctx
	s.solveCtx, s.solveCancel = context.WithCancel(context.Background())
	//satlint:ignore ctxflow process-root lifecycle contexts: the server owns its workers' lifetime; cancellation is Drain/Close, not a caller ctx
	s.workCtx, s.workCancel = context.WithCancel(context.Background())

	for _, j := range st.pending {
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.mu.Unlock()
		s.pending.Add(1)
		s.m.PendingAdd(j.Tenant, 1)
		s.m.RecordReplayed(j.Tenant)
	}
	if n := len(st.pending); n > 0 {
		o.Logf("serve: replaying %d journaled jobs", n)
		// Replay may exceed the queue cap, so feed it from a goroutine;
		// the workers drain it as they start.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for _, j := range st.pending {
				select {
				case s.queue <- j:
				case <-s.workCtx.Done():
					return
				}
			}
		}()
	}
	for i := 0; i < o.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Health reports the service's degradations: journal or cache faults
// since startup. Wire it into ophttp.Options.Health so /healthz flips to
// 503 "degraded" when durability is compromised.
func (s *Server) Health() error {
	s.cacheMu.Lock()
	cerr := s.cacheErr
	s.cacheMu.Unlock()
	return errors.Join(s.journal.health(), cerr)
}

// Register mounts the job API on mux:
//
//	POST   /jobs              submit a spec; 202 with the job snapshot
//	GET    /jobs              all job snapshots
//	GET    /jobs/summary      state counts, queue age, per-tenant in-flight
//	GET    /jobs/{id}         one job snapshot
//	GET    /jobs/{id}/trace   the job's span timeline (JSON)
//	GET    /jobs/{id}/stream  NDJSON stream of snapshots until terminal
//	POST   /jobs/{id}/cancel  cancel (also DELETE /jobs/{id})
//
// (/jobs/summary wins over /jobs/{id} by ServeMux specificity, so
// "summary" is a reserved job ID.)
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.route("submit", s.handleSubmit))
	mux.HandleFunc("GET /jobs", s.route("list", s.handleList))
	mux.HandleFunc("GET /jobs/summary", s.route("summary", s.handleSummary))
	mux.HandleFunc("GET /jobs/{id}", s.route("status", s.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/trace", s.route("trace", s.handleTrace))
	mux.HandleFunc("GET /jobs/{id}/stream", s.route("stream", s.handleStream))
	mux.HandleFunc("POST /jobs/{id}/cancel", s.route("cancel", s.handleCancel))
	mux.HandleFunc("DELETE /jobs/{id}", s.route("cancel", s.handleCancel))
}

// route wraps a handler with per-route accounting and panic containment:
// a panicking handler (fault injection reaches here through the
// admission site) costs its request a 500, never the process.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.m.HandlerPanics.Inc()
				s.o.Logf("serve: %s handler panicked: %v", name, p)
				http.Error(w, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
		}()
		s.m.RecordRequest(name)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.m.RecordRejected("draining", "")
		w.Header().Set("Retry-After", "5")
		http.Error(w, "draining: not admitting new jobs", http.StatusServiceUnavailable)
		return
	}
	var sp core.Spec
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(&sp); err != nil {
		reason, code := "bad_spec", http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			reason, code = "too_large", http.StatusRequestEntityTooLarge
		}
		s.m.RecordRejected(reason, "")
		http.Error(w, fmt.Sprintf("bad spec: %v", err), code)
		return
	}
	tenant := tenantOf(&sp)
	if len(sp.Tasks) == 0 || len(sp.ECUs) == 0 {
		s.m.RecordRejected("bad_spec", tenant)
		http.Error(w, "invalid spec: no tasks or no ecus", http.StatusBadRequest)
		return
	}
	if _, err := sp.ToSystem(); err != nil {
		s.m.RecordRejected("bad_spec", tenant)
		http.Error(w, fmt.Sprintf("invalid spec: %v", err), http.StatusBadRequest)
		return
	}
	// The admission fault site: a panic here is the route wrapper's 500,
	// which clients treat as retryable.
	faultinject.Fire(faultinject.SiteServeAdmit)

	hash := SpecHash(&sp)
	if res, ok := s.cacheLookup(hash, tenant); ok {
		writeJSON(w, http.StatusOK, Status{
			ID: hash, State: StateDone, SpecHash: hash, Tenant: tenant,
			Result: res, CacheHit: true,
		})
		return
	}

	j := newJob(fmt.Sprintf("j%08d", s.seq.Add(1)), hash, &sp)
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	select {
	case s.queue <- j:
	default:
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		s.m.RecordRejected("queue_full", tenant)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}
	s.pending.Add(1)
	s.m.PendingAdd(j.Tenant, 1)
	s.m.RecordSubmitted(j.Tenant)
	s.m.QueueDepth.Set(int64(len(s.queue)))
	if err := s.journal.append(record{T: "submit", ID: j.ID, Hash: hash, Spec: &sp}); err != nil {
		// The job runs anyway; durability is degraded, not the service.
		s.o.Logf("serve: journal submit %s: %v", j.ID, err)
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

// Summary is the JSON wire form of GET /jobs/summary: the service's
// shape at a glance — job counts per state, queue pressure, how long the
// oldest queued job has been waiting, and each tenant's in-flight jobs.
type Summary struct {
	States          map[State]int  `json:"states"`
	QueueDepth      int            `json:"queueDepth"`
	OldestQueuedMS  int64          `json:"oldestQueuedMs"`
	TenantsInFlight map[string]int `json:"tenantsInFlight"`
	Draining        bool           `json:"draining"`
}

func (s *Server) handleSummary(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sum := Summary{
		States:          map[State]int{},
		QueueDepth:      len(s.queue),
		TenantsInFlight: map[string]int{},
		Draining:        s.draining.Load(),
	}
	now := time.Now()
	for _, j := range jobs {
		j.mu.Lock()
		state, submitted := j.state, j.submitted
		j.mu.Unlock()
		sum.States[state]++
		if !state.Terminal() {
			sum.TenantsInFlight[j.Tenant]++
		}
		if state == StateQueued {
			if age := now.Sub(submitted).Milliseconds(); age > sum.OldestQueuedMS {
				sum.OldestQueuedMS = age
			}
		}
	}
	writeJSON(w, http.StatusOK, sum)
}

// Trace is the JSON wire form of GET /jobs/{id}/trace: the job's span
// timeline as recorded by its job-scoped tracer. Spans are the tracer's
// JSONL records (span name, id/parent nesting, start offset and duration
// in microseconds, attributes carrying the job identity), oldest first.
// Dropped counts spans evicted from the bounded ring; a job recovered
// from the journal after a restart has an empty timeline — the trace is
// in-memory state, unlike the job itself.
type Trace struct {
	ID       string            `json:"id"`
	Tenant   string            `json:"tenant"`
	SpecHash string            `json:"specHash"`
	State    State             `json:"state"`
	Spans    []json.RawMessage `json:"spans"`
	Dropped  int64             `json:"dropped,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	spans, dropped := j.trace.Snapshot()
	if spans == nil {
		spans = []json.RawMessage{}
	}
	snap := j.snapshot()
	writeJSON(w, http.StatusOK, Trace{
		ID: j.ID, Tenant: j.Tenant, SpecHash: j.Hash, State: snap.State,
		Spans: spans, Dropped: dropped,
	})
}

// handleStream writes NDJSON snapshots — one line per observable change,
// ending with the terminal one — so a client can watch the anytime
// window tighten without polling.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var last int64 = -1
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		snap := j.snapshot()
		if snap.Version != last {
			last = snap.Version
			if enc.Encode(snap) != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if snap.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Loop once more to emit the terminal snapshot.
		case <-tick.C:
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// cancelJob requests cancellation: a queued job terminates immediately
// (the worker skips its tombstone); a running one gets its solve context
// cancelled and keeps whatever incumbent the search had (budget-halt
// semantics — the result still arrives, marked cancelled).
func (s *Server) cancelJob(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.cancelReq = true
	if j.state == StateQueued {
		j.mu.Unlock()
		s.finalize(j, StateCancelled, nil, "cancelled while queued", "cancel")
		return
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// finalize moves a job to its terminal state exactly once, updates the
// accounting (including the per-tenant latency and convergence
// histograms), and journals the verdict.
func (s *Server) finalize(j *Job, state State, res *Result, errmsg, rectype string) {
	// Cache before publishing the terminal state: a client that polls the
	// job to "done" and immediately resubmits the same spec must hit the
	// cache. Verdicts are deterministic, so caching ahead of the terminal
	// race (or redundantly, if another finalizer wins it) is harmless.
	if res.exact() {
		s.cacheStore(j.Hash, res)
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.errmsg = errmsg
	j.cancel = nil
	j.version++
	close(j.done)
	total := time.Since(j.submitted)
	firstBound := j.firstBound
	j.mu.Unlock()

	s.pending.Add(-1)
	s.m.PendingAdd(j.Tenant, -1)
	outcome := string(state)
	if state == StateDone && res != nil {
		outcome = res.Status
	}
	s.m.RecordCompleted(outcome, j.Tenant)
	s.m.RecordTotal(j.Tenant, total)
	if firstBound > 0 {
		s.m.RecordFirstFeasible(j.Tenant, firstBound)
	}
	if outcome == "optimal" {
		s.m.RecordOptimal(j.Tenant, total)
	}
	rec := record{T: rectype, ID: j.ID, Hash: j.Hash, Result: res, Err: errmsg}
	if err := s.journal.append(rec); err != nil {
		s.o.Logf("serve: journal %s %s: %v", rectype, j.ID, err)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.workCtx.Done():
			return
		case j := <-s.queue:
			s.m.QueueDepth.Set(int64(len(s.queue)))
			s.runJob(j)
		}
	}
}

// runJob executes one solve attempt and settles the job: terminal on
// success or cancellation, requeued with backoff after a contained
// panic, failed once the retry budget is spent.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return // tombstone: cancelled while queued
	}
	j.state = StateRunning
	j.attempts++
	attempt := j.attempts
	// Queue wait is the first submit-to-run gap; retries wait on the
	// backoff clock, not the admission queue. Capture the duration here
	// but record it after the unlock: the histogram takes the registry
	// lock, which must never nest under a job's.
	queueWait := time.Duration(-1)
	if attempt == 1 {
		queueWait = time.Since(j.submitted)
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if s.o.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.solveCtx, s.o.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(s.solveCtx)
	}
	j.cancel = cancel
	j.version++
	j.mu.Unlock()
	defer cancel()
	if queueWait >= 0 {
		s.m.RecordQueueWait(j.Tenant, queueWait)
	}

	s.m.WorkersBusy.Add(1)
	start := time.Now()
	res, err := s.attempt(ctx, j, attempt)
	s.m.RecordAttempt(j.Tenant, time.Since(start))
	s.m.WorkersBusy.Add(-1)

	j.mu.Lock()
	j.cancel = nil
	cancelled := j.cancelReq
	j.mu.Unlock()

	switch {
	case err == nil && cancelled:
		// The search was interrupted but may still carry an incumbent —
		// deliver it with the cancellation instead of discarding it.
		s.finalize(j, StateCancelled, res, "", "cancel")
	case err == nil:
		s.finalize(j, StateDone, res, "", "done")
	case cancelled:
		s.finalize(j, StateCancelled, nil, err.Error(), "cancel")
	case attempt < s.o.MaxAttempts:
		s.m.RecordRetried(j.Tenant)
		s.o.Logf("serve: job %s attempt %d/%d died (%v); retrying", j.ID, attempt, s.o.MaxAttempts, err)
		s.retryLater(j, attempt, err)
	default:
		s.finalize(j, StateFailed, nil,
			fmt.Sprintf("failed after %d attempts: %v", attempt, err), "fail")
	}
}

// attempt runs the solve pipeline once with full panic containment: the
// worker fault site and anything the pipeline's own containment misses
// unwind into err, never into the pool. The whole attempt runs under a
// span of the job's own tracer, so every pipeline span (Encode,
// Solve[i], Decode, …) lands in the job's trace ring carrying the job's
// identity.
func (s *Server) attempt(ctx context.Context, j *Job, attempt int) (res *Result, err error) {
	root := j.tracer.Start(fmt.Sprintf("Attempt[%d]", attempt))
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("worker panic: %v", p)
		}
		switch {
		case err != nil:
			root.Outcome(obs.OutcomeError).Attr("err", err.Error())
		case res != nil && res.Aborted:
			root.Outcome(obs.OutcomeDegraded)
		default:
			root.Outcome(obs.OutcomeOK)
		}
		root.End()
	}()
	faultinject.Fire(faultinject.SiteServeWorker)
	sys, err := j.Spec.ToSystem()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ob := s.o.Observer.Copy()
	ob.OnImprove = j.improve
	sol, err := core.SolveContext(ctx, sys, core.Config{
		Objective:           core.MinimizeTRT,
		MaxConflictsPerCall: s.o.ConflictBudget,
		Workers:             s.o.SolveWorkers,
		DiagnosticsDir:      s.o.DataDir,
		Observer:            &ob,
		Trace:               root,
	})
	if err != nil {
		return nil, err
	}
	res = &Result{
		Status:     sol.Status.String(),
		Feasible:   sol.Feasible,
		Aborted:    sol.Aborted,
		Cost:       sol.Cost,
		LowerBound: sol.LowerBound,
		SolveCalls: sol.SolveCalls,
		Conflicts:  sol.Conflicts,
		DurationMS: time.Since(start).Milliseconds(),
	}
	if sol.Allocation != nil {
		res.Allocation = core.AllocationToSpec(sys, sol.Allocation, sol.Cost)
	}
	return res, nil
}

// retryLater requeues j after a jittered exponential backoff
// (base·2^attempt, capped, ±50% jitter) so a panicking cohort does not
// stampede back in lockstep.
func (s *Server) retryLater(j *Job, attempt int, cause error) {
	d := s.o.RetryBase << (attempt - 1)
	if d > s.o.RetryMax {
		d = s.o.RetryMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-time.After(d):
		case <-s.workCtx.Done():
			// Pool shutting down: the job stays journaled as pending and
			// will be replayed by the next process.
			return
		}
		j.mu.Lock()
		if j.state.Terminal() {
			j.mu.Unlock()
			return // cancelled while backing off
		}
		j.state = StateQueued
		j.version++
		j.mu.Unlock()
		select {
		case s.queue <- j:
			s.m.QueueDepth.Set(int64(len(s.queue)))
		default:
			s.finalize(j, StateFailed, nil,
				fmt.Sprintf("queue full on retry after: %v", cause), "fail")
		}
	}()
}

// cacheLookup consults the spec-hash result cache. The cache fault site
// fires inside, contained: a cache fault degrades Health and reads as a
// miss, never breaks admission.
func (s *Server) cacheLookup(hash, tenant string) (res *Result, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			res, ok = nil, false
			s.cacheFault(fmt.Errorf("cache lookup panicked: %v", p))
		}
		if ok {
			s.m.RecordCacheHit(tenant)
		} else {
			s.m.RecordCacheMiss(tenant)
		}
	}()
	faultinject.Fire(faultinject.SiteServeCache)
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	res, ok = s.cache[hash]
	return res, ok
}

// cacheStore records a deterministic verdict for future submissions.
func (s *Server) cacheStore(hash string, res *Result) {
	defer func() {
		if p := recover(); p != nil {
			s.cacheFault(fmt.Errorf("cache store panicked: %v", p))
		}
	}()
	faultinject.Fire(faultinject.SiteServeCache)
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.cache[hash] = res
}

func (s *Server) cacheFault(err error) {
	s.cacheMu.Lock()
	if s.cacheErr == nil {
		s.cacheErr = err
	}
	s.cacheMu.Unlock()
}

// Drain is the graceful-shutdown path: stop admitting, let in-flight
// jobs finish on their own for half the grace period, then cancel their
// solve contexts so they budget-halt to their anytime incumbents, and
// wait for the pool to settle. Jobs that still are not terminal at the
// deadline stay journaled as pending — a later process replays them — so
// the returned error is a degradation notice, not data loss.
func (s *Server) Drain(grace time.Duration) error {
	if s.draining.CompareAndSwap(false, true) {
		s.m.Draining.Set(1)
	}
	deadline := time.Now().Add(grace)
	halt := time.AfterFunc(grace/2, s.solveCancel)
	for s.pending.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	halt.Stop()
	s.solveCancel()
	s.workCancel()

	settled := make(chan struct{})
	go func() { s.wg.Wait(); close(settled) }()
	wait := time.Until(deadline)
	if wait < time.Second {
		wait = time.Second
	}
	select {
	case <-settled:
	case <-time.After(wait):
	}

	var err error
	if n := s.pending.Load(); n > 0 {
		err = fmt.Errorf("serve: %d jobs still pending after %v grace; journaled for replay", n, grace)
	}
	if cerr := s.journal.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Close hard-stops the server without the drain dance (tests, and the
// crash path). In-flight jobs stay journaled as pending.
func (s *Server) Close() {
	s.draining.Store(true)
	s.solveCancel()
	s.workCancel()
	s.wg.Wait()
	s.journal.close()
}
