package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"satalloc/internal/core"
	"satalloc/internal/serve"
)

// Service load shape: an open loop of 3×6 ring specs at a fixed rate from
// two tenants in a 3:1 mix; every fourth submission from the third
// second on resubmits a spec first sent at least resubmitAge earlier, so
// it is answered from the result cache.
const (
	serviceRate  = 20 // submissions per second
	resubmitAge  = 2 * time.Second
	servicePool  = 2
	jobWaitLimit = 60 * time.Second
	// maxConns caps the generator's connections. Each job's stream holds
	// one until the verdict, so the cap must exceed the jobs in flight
	// (rate × latency, about 2) or the open loop would queue in the client.
	maxConns = 32
)

// submission is one scheduled POST /jobs and what came of it.
type submission struct {
	due    time.Duration // offset from the load start
	spec   int           // index into the distinct specs
	tenant string
	body   []byte
	traced bool // fetch the job's server-side trace after its verdict

	late      time.Duration // due → send
	submitRTT time.Duration // the POST round trip
	latency   time.Duration // due → terminal verdict
	cacheHit  bool
	result    *serve.Result
	id        string
	spans     []span
	err       error
}

// serviceCorpus builds the distinct specs and the submission schedule
// for a window of the given length.
func serviceCorpus(seed int64, window time.Duration) ([]instance, []*submission, error) {
	var ref map[string]verdict
	if seed == defaultSeed {
		var err error
		if ref, err = loadReference(); err != nil {
			return nil, nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(window.Seconds() * serviceRate)
	interval := time.Second / serviceRate
	var specs []instance
	var subs []*submission
	ageSubs := int(resubmitAge / interval)
	for k := 0; k < n; k++ {
		s := &submission{due: time.Duration(k) * interval, tenant: "acme"}
		if k%4 == 1 {
			s.tenant = "globex"
		}
		if k%4 == 3 && k >= ageSubs {
			// Resubmit a spec first sent at least resubmitAge earlier.
			s.spec = subs[rng.Intn(k-ageSubs+1)].spec
		} else {
			sys := ring(3, 6, smallRingSeed(seed, len(specs)))
			in := instance{name: sys.Name, sys: sys, obj: core.MinimizeTRT}
			if v, ok := ref[sys.Name]; ok {
				in.want = &v
			}
			s.spec = len(specs)
			specs = append(specs, in)
		}
		spec := core.ToSpec(specs[s.spec].sys)
		spec.Meta = map[string]string{"tenant": s.tenant}
		var err error
		if s.body, err = json.Marshal(spec); err != nil {
			return nil, nil, err
		}
		subs = append(subs, s)
	}
	return specs, subs, nil
}

// allocd is one running allocd process.
type allocd struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	mu     sync.Mutex // guards stderr
	done   chan struct{}
}

// startAllocd launches allocd on a loopback port with a fresh data dir
// and returns once /healthz answers.
func startAllocd(bin, dataDir string) (*allocd, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-pool", strconv.Itoa(servicePool))
	// allocd must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	a := &allocd{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	addr := make(chan string, 1) // one announce line
	go func() {
		defer close(a.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "allocd: listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
			a.mu.Lock()
			a.stderr.WriteString(line + "\n")
			a.mu.Unlock()
		}
	}()
	select {
	case a.base = <-addr:
	case <-a.done:
		a.stop()
		return nil, fmt.Errorf("allocd exited before listening: %s", a.log())
	case <-time.After(30 * time.Second):
		a.stop()
		return nil, errors.New("allocd did not announce its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(a.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return a, nil
			}
		}
		if time.Now().After(deadline) {
			a.stop()
			return nil, fmt.Errorf("allocd /healthz not ok: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (a *allocd) log() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stderr.String()
}

// stop drains allocd with SIGTERM, killing it if the drain overruns,
// and waits for the process to end.
func (a *allocd) stop() error {
	_ = a.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped by Wait
	t := time.AfterFunc(30*time.Second, func() { _ = a.cmd.Process.Kill() })
	<-a.done
	err := a.cmd.Wait()
	t.Stop()
	return err
}

// scrape returns allocd's /metrics, each series summed over its label
// sets.
func (a *allocd) scrape() (map[string]float64, error) {
	resp, err := http.Get(a.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// goMem reads allocd's cumulative allocation and GC counters from the
// runtime.MemStats block of its heap profile.
func (a *allocd) goMem() (goMem, error) {
	resp, err := http.Get(a.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return goMem{}, err
	}
	defer resp.Body.Close()
	var m goMem
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			m.allocBytes, _ = strconv.ParseUint(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			n, _ := strconv.ParseUint(v, 10, 32)
			m.gcCycles = uint32(n)
		}
	}
	return m, sc.Err()
}

func runService(o options, rep *report) error {
	if o.allocd == "" || o.workdir == "" {
		return errors.New("-allocd and -workdir are required")
	}
	dataDir := filepath.Join(o.workdir, fmt.Sprintf("allocd-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)

	// Set-up, setupReps times: build the corpus, start allocd until
	// /healthz answers and run one warm-up job to its verdict. Every
	// allocd but the last is stopped again.
	var specs []instance
	var subs []*submission
	var setups, gens []float64
	var srv *allocd
	for r := 0; r < setupReps; r++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("allocd stop: %v\n%s", err, srv.log())
			}
		}
		start := time.Now()
		var err error
		if specs, subs, err = serviceCorpus(o.seed, o.seconds); err != nil {
			return err
		}
		gens = append(gens, msSince(start))
		if srv, err = startAllocd(o.allocd, dataDir); err != nil {
			return err
		}
		if err := warmupJob(srv.base); err != nil {
			srv.stop()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Printf("%d submissions of %d distinct specs; set-up %.3f s (median of %d)\n",
		len(subs), len(specs), median(setups), setupReps)

	if o.trace {
		// The second half of the window is traced: its jobs' server-side
		// traces are fetched as their verdicts arrive.
		for _, s := range subs[len(subs)/2:] {
			s.traced = true
		}
	}
	m, err := measure(srv, subs)
	if stopErr := srv.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("allocd stop: %v\n%s", stopErr, srv.log())
	}
	if err != nil {
		return err
	}
	// Check every verdict and split the latencies by mode.
	var solved, hits, submitMS, lateMS []float64
	var rtaMS float64
	first := map[int]*serve.Result{}
	for _, s := range subs {
		rep.attempted++
		lateMS = append(lateMS, ms(s.late))
		if s.err != nil {
			fmt.Printf("FAILED: submission at %v: %v\n", s.due, s.err)
			rep.fail("")
			continue
		}
		start := time.Now()
		mismatch := checkResult(specs[s.spec], s.result)
		rtaMS += msSince(start)
		if mismatch == "" && s.cacheHit {
			if f := first[s.spec]; f == nil || f.Status != s.result.Status || f.Cost != s.result.Cost {
				mismatch = "cache hit disagrees with the solved verdict"
			}
		}
		if mismatch != "" {
			rep.fail(fmt.Sprintf("%s (submission at %v): %s", specs[s.spec].name, s.due, mismatch))
			continue
		}
		if s.cacheHit {
			hits = append(hits, ms(s.latency))
			continue
		}
		if first[s.spec] == nil {
			first[s.spec] = s.result
		}
		solved = append(solved, ms(s.latency))
		submitMS = append(submitMS, ms(s.submitRTT))
	}
	ops := float64(len(subs))
	fmt.Printf("%d solved, %d cache hits, %d failed in %.1f s\n", len(solved), len(hits), rep.failed, m.elapsed.Seconds())
	if len(solved) == 0 || len(hits) == 0 {
		return errors.New("no solved jobs or no cache hits to time")
	}
	if !o.trace {
		rep.set("setup_s", median(setups))
		rep.set("solves_per_s", float64(len(solved)+len(hits))/m.elapsed.Seconds())
		rep.set("solve_ms_geomean", geomean(solved))
		rep.set("solve_ms_p50", median(solved))
		rep.set("solve_ms_p90", quantile(solved, 0.9))
		rep.set("cpu_ms_per_op", ms(m.cpu)/ops)
		rep.set("rss_peak_mb", m.rss)
		rep.okFrac()
		return nil
	}
	rep.set("workload.gen_ms", median(gens))
	rep.set("gen.late_ms_p99", quantile(lateMS, 0.99))
	rep.set("serve.submit_ms_p50", median(submitMS))
	rep.set("serve.hit_ms_p50", median(hits))
	delta := func(series string) float64 { return m.after[series] - m.before[series] }
	// Solver counters the job trace does not carry, over every solved job.
	nSolved := float64(len(solved))
	rep.set("sat.propagations", delta("satalloc_sat_propagations_total")/nSolved)
	rep.set("sat.props_per_ms", frac(delta("satalloc_sat_propagations_total"),
		delta("satalloc_opt_solve_call_duration_ms_sum")))
	rep.set("sat.restarts", delta("satalloc_sat_restarts_total")/nSolved)
	rep.set("sat.learnt_pruned_frac", frac(delta("satalloc_sat_learnt_pruned_total"),
		delta("satalloc_sat_learnt_added_total")))
	// Every distinct spec is solved once (resubmissions are cache hits),
	// so no instance's work can be compared across solves.
	rep.set("work.varying_instances", 0)
	rep.absent(proofLayer)
	cached := delta("satalloc_serve_cache_hits_total")
	rep.set("serve.cache_hit_frac", frac(cached, cached+delta("satalloc_serve_cache_misses_total")))
	rep.set("serve.journal_records_per_job", frac(delta("satalloc_serve_journal_records_total"),
		delta("satalloc_serve_jobs_submitted_total")))
	rep.set("serve.rejected", delta("satalloc_serve_jobs_rejected_total"))
	rep.set("go.alloc_mb_per_op", float64(m.mem.allocBytes)/(1<<20)/ops)
	rep.set("go.gc_cycles_per_op", float64(m.mem.gcCycles)/ops)
	rep.set("rta.verify_ms", rtaMS/ops)
	serviceLayers(subs, rep)
	return nil
}

// warmupJob runs the warm-up instance through allocd to its verdict.
func warmupJob(base string) error {
	in := warmupInstance()
	body, err := json.Marshal(core.ToSpec(in.sys))
	if err != nil {
		return err
	}
	s := &submission{body: body}
	if err := s.run(http.DefaultClient, base, time.Now()); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if s.result == nil || s.result.Status != "optimal" {
		return fmt.Errorf("warm-up: no optimal verdict: %+v", s.result)
	}
	return nil
}

// measurement is what the load run observed on the allocd side.
type measurement struct {
	elapsed       time.Duration
	cpu           time.Duration // allocd CPU during the load
	rss           float64       // allocd peak RSS, MiB
	mem           goMem         // allocd allocation and GC deltas
	before, after map[string]float64
}

// measure drives the load against srv and samples allocd around it.
func measure(srv *allocd, subs []*submission) (*measurement, error) {
	pid := srv.cmd.Process.Pid
	m := &measurement{}
	var err error
	if m.before, err = srv.scrape(); err != nil {
		return nil, err
	}
	mem0, err := srv.goMem()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	m.elapsed = drive(srv.base, subs)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.rss, err = procPeakRSSMB(pid); err != nil {
		return nil, err
	}
	if m.after, err = srv.scrape(); err != nil {
		return nil, err
	}
	mem1, err := srv.goMem()
	if err != nil {
		return nil, err
	}
	m.mem = goMem{mem1.allocBytes - mem0.allocBytes, mem1.gcCycles - mem0.gcCycles}
	return m, nil
}

// checkResult validates one service verdict: an exact verdict, the
// oracle's where known, and checkOptimal for optimal verdicts.
func checkResult(in instance, r *serve.Result) string {
	if r == nil || (r.Status != "optimal" && r.Status != "infeasible") {
		return fmt.Sprintf("no exact verdict: %+v", r)
	}
	got := verdict{Feasible: r.Status == "optimal", Cost: r.Cost}
	if !got.Feasible {
		got.Cost = 0
	}
	if in.want != nil && got != *in.want {
		return fmt.Sprintf("got %s, want %s", got, *in.want)
	}
	if !got.Feasible {
		return ""
	}
	if r.Allocation == nil {
		return "optimal verdict without an allocation"
	}
	a, err := r.Allocation.ToAllocation(in.sys)
	if err != nil {
		return err.Error()
	}
	return in.checkOptimal(a, r.Cost)
}

// drive fires the submissions on their schedule (open loop: a slow
// service does not slow the schedule) and returns once every one has its
// verdict, with the time from the first due instant to the last verdict.
func drive(base string, subs []*submission) time.Duration {
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
	}}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range subs {
		time.Sleep(time.Until(start.Add(s.due)))
		wg.Add(1)
		go func(s *submission) {
			defer wg.Done()
			s.late = time.Since(start.Add(s.due))
			s.err = s.run(client, base, start.Add(s.due))
		}(s)
	}
	wg.Wait()
	return time.Since(start)
}

// run submits one spec and waits for its terminal verdict on the job's
// NDJSON stream.
func (s *submission) run(client *http.Client, base string, due time.Time) error {
	ctx, cancel := context.WithTimeout(context.Background(), jobWaitLimit)
	defer cancel()
	sent := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(s.body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	s.submitRTT = time.Since(sent)
	switch {
	case resp.StatusCode == http.StatusOK && st.CacheHit:
		s.latency = time.Since(due)
		s.cacheHit = true
		s.result = st.Result
		return nil
	case resp.StatusCode != http.StatusAccepted:
		return fmt.Errorf("POST /jobs: %s", resp.Status) // shed or error
	case err != nil:
		return fmt.Errorf("POST /jobs: %w", err)
	}
	s.id = st.ID
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		return err
	}
	if st, err = s.await(client, req); err != nil {
		return err
	}
	s.latency = time.Since(due)
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", s.id, st.State, st.Error)
	}
	s.result = st.Result
	if s.traced {
		return s.fetchTrace(ctx, client, base)
	}
	return nil
}

// await reads the job's NDJSON stream up to its terminal snapshot.
func (s *submission) await(client *http.Client, req *http.Request) (serve.Status, error) {
	var st serve.Status
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		if err := dec.Decode(&st); err != nil {
			return st, fmt.Errorf("stream %s: %w", s.id, err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
}

// fetchTrace reads the job's server-side span timeline.
func (s *submission) fetchTrace(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+s.id+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tr serve.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("trace %s: %w", s.id, err)
	}
	lines := make([][]byte, len(tr.Spans))
	for i, raw := range tr.Spans {
		lines[i] = raw
	}
	s.spans = parseSpans(lines)
	return nil
}

// serviceLayers sets the span-derived per-layer metrics of a traced
// service run and prints the self-time table of a solved job: the
// generator's lateness, the POST round trip, the server's queue wait,
// each module's self time inside the attempt, and the rest of the
// latency (stream notification and HTTP) as client.
func serviceLayers(subs []*submission, rep *report) {
	tab := newSelfTable()
	var queue, attempt, plain, traced []float64
	var vars, lits, requested, reused, satMS, unsatMS, unsat, probes, conflicts, decisions float64
	for _, s := range subs {
		if s.err != nil || s.cacheHit {
			continue
		}
		if !s.traced {
			plain = append(plain, ms(s.latency))
			continue
		}
		traced = append(traced, ms(s.latency))
		probes += float64(s.result.SolveCalls)
		conflicts += float64(s.result.Conflicts)
		var wait, server float64
		for _, sp := range s.spans {
			switch sp.phase() {
			case "Attempt":
				if sp.Name == "Attempt[1]" {
					wait = float64(sp.StartUS) / 1000
					queue = append(queue, wait)
				}
				attempt = append(attempt, float64(sp.DurUS)/1000)
				server += float64(sp.DurUS) / 1000
			case "BitBlast":
				vars += sp.num("vars")
				lits += sp.num("literals")
				requested += sp.num("gates_requested")
				reused += sp.num("gates_reused")
			case "Solve":
				decisions += sp.num("decisions")
				if sp.Attrs["status"] == "UNSAT" {
					unsat++
					unsatMS += float64(sp.DurUS) / 1000
				} else {
					satMS += float64(sp.DurUS) / 1000
				}
			}
		}
		tab.add(s.spans)
		tab.self["gen"] += ms(s.late)
		tab.self["serve.submit"] += ms(s.submitRTT)
		tab.self["serve.queue"] += wait
		tab.self["client"] += ms(s.latency) - ms(s.late) - ms(s.submitRTT) - wait - server
	}
	n := float64(len(traced))
	rep.set("serve.queue_wait_ms_p95", quantile(queue, 0.95))
	rep.set("serve.attempt_ms_p50", median(attempt))
	rep.set("encode.ms", tab.total["Encode"]/n)
	rep.set("ir.triplet_ms", tab.total["Triplet"]/n)
	rep.set("bv.blast_ms", tab.total["BitBlast"]/n)
	rep.set("bv.vars", vars/n)
	rep.set("bv.literals", lits/n)
	rep.set("bv.gates_reused_frac", frac(reused, requested))
	rep.set("sat.sat_probe_ms", satMS/n)
	rep.set("sat.unsat_probe_ms", unsatMS/n)
	rep.set("sat.conflicts", conflicts/n)
	rep.set("sat.decisions", decisions/n)
	rep.set("opt.probes", probes/n)
	rep.set("opt.unsat_probes", unsat/n)
	rep.set("opt.decode_verify_ms", (tab.total["Decode"]+tab.total["Verify"])/n)
	overhead := median(traced)/median(plain) - 1
	rep.set("obs.trace_overhead_frac", overhead)
	tab.print(len(traced))
	fmt.Printf("solved-job latency p50: traced half %.3f ms, untraced half %.3f ms; tracing overhead %+.2f%%\n",
		median(traced), median(plain), 100*overhead)
}
