package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"lakeguard/internal/connect"
	"lakeguard/internal/types"
)

// options selects one run of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	traceOut string
	// tmpDir is where ingest_churn's persistent store lives (and is removed
	// from) — inside the checkout, never the system temp directory.
	tmpDir string
}

// setupRepeats is how often a run sets the workload up; the median is
// setup_s and the last set-up is the one measured.
const setupRepeats = 5

// env is one set-up workload: the deployment, the seeded instance and the
// open client sessions.
type env struct {
	world   *world
	inst    *instance
	wl      *workload
	dataDir string
	clients [numClients]map[string]*connect.Client
	rounds  [numClients]int // next round number per client
	digests [numClients]digester
}

func setup(wl *workload, opt options) (*env, error) {
	e := &env{wl: wl}
	if wl.persistent {
		if err := os.MkdirAll(opt.tmpDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(opt.tmpDir, wl.name+"-*")
		if err != nil {
			return nil, err
		}
		e.dataDir = dir
	}
	w, err := newWorld(e.dataDir)
	if err != nil {
		e.close()
		return nil, err
	}
	e.world = w
	if e.inst, err = wl.prepare(w, opt.seed, opt.quick); err != nil {
		e.close()
		return nil, fmt.Errorf("prepare %s: %w", wl.name, err)
	}
	for c := range e.clients {
		e.clients[c] = map[string]*connect.Client{}
		for _, token := range e.inst.tokens {
			cl := w.dial(token)
			e.clients[c][token] = cl
			if e.inst.initSession != nil {
				if err := e.inst.initSession(cl); err != nil {
					e.close()
					return nil, fmt.Errorf("session init: %w", err)
				}
			}
		}
	}
	// Warm-up: the snapshot cache, the batch cache and the sandbox cold
	// starts are paid here, not in the window.
	warm := wl.warmup
	if opt.quick {
		warm = 1
	}
	res := e.window(func(c int) bool { return e.rounds[c] < warm }, nil)
	if res.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d statements failed: %s", res.failed, res.attempted, res.firstErr)
	}
	return e, nil
}

func (e *env) close() {
	if e.world != nil {
		for _, byToken := range e.clients {
			for _, c := range byToken {
				_ = c.Close() // the server is going away with the session
			}
		}
		e.world.close()
	}
	if e.dataDir != "" {
		_ = os.RemoveAll(e.dataDir) // best effort: the directory is scratch
	}
}

// execute sends one statement through connect.Client, as an application
// would: reads as SQL relations, DML as SQL commands.
func (e *env) execute(client int, s stmt) (*types.Batch, error) {
	c := e.clients[client][e.token(s)]
	if s.dml {
		return c.ExecSQL(s.sql)
	}
	return c.Sql(s.sql).Collect()
}

func (e *env) token(s stmt) string {
	if s.token != "" {
		return s.token
	}
	return e.inst.tokens[0]
}

// windowResult is what one closed-loop window observed.
type windowResult struct {
	roundsMS  []float64            // client-observed latency of each full round
	classMS   map[string][]float64 // client-observed latency per statement class
	classN    map[string]int       // statements issued per class
	attempted int
	failed    int
	firstErr  string
	rate      float64 // correct statements per second, summed over clients
	cpuMS     float64 // per statement
	allocKB   float64 // per statement
	gcCycles  uint32
	gcPauseMS float64
}

// window runs the closed loop: each client issues the statements of its next
// round one after another, waiting for each answer, while more() says so.
// traced, when set, executes statements through the staged client instead of
// connect.Client.
func (e *env) window(more func(client int) bool, traced []*tracedClient) *windowResult {
	var perClient [numClients]windowResult
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &perClient[c]
			res.classMS = map[string][]float64{}
			res.classN = map[string]int{}
			t0 := time.Now()
			for more(c) {
				r := e.rounds[c]
				e.rounds[c]++
				var roundNS int64
				for _, s := range e.inst.round(c, r) {
					ns, err := e.issue(c, s, traced)
					res.attempted++
					res.classN[s.class]++
					if err != nil {
						res.failed++
						if res.firstErr == "" {
							res.firstErr = fmt.Sprintf("%s: %v", s.class, err)
						}
						continue
					}
					// A DML turn timed in process has no client latency.
					if ns > 0 {
						res.classMS[s.class] = append(res.classMS[s.class], float64(ns)/1e6)
						roundNS += ns
					}
				}
				res.roundsMS = append(res.roundsMS, float64(roundNS)/1e6)
			}
			res.rate = float64(res.attempted-res.failed) / time.Since(t0).Seconds()
		}(c)
	}
	wg.Wait()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)

	out := &windowResult{classMS: map[string][]float64{}, classN: map[string]int{}}
	for _, res := range perClient {
		out.roundsMS = append(out.roundsMS, res.roundsMS...)
		for k, v := range res.classMS {
			out.classMS[k] = append(out.classMS[k], v...)
		}
		for k, n := range res.classN {
			out.classN[k] += n
		}
		out.attempted += res.attempted
		out.failed += res.failed
		out.rate += res.rate
		if out.firstErr == "" {
			out.firstErr = res.firstErr
		}
	}
	if out.attempted > 0 {
		cpu := tvMS(ru1.Utime) + tvMS(ru1.Stime) - tvMS(ru0.Utime) - tvMS(ru0.Stime)
		out.cpuMS = cpu / float64(out.attempted)
		out.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(out.attempted)
	}
	out.gcCycles = ms1.NumGC - ms0.NumGC
	out.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return out
}

// issue sends one statement, brackets it in the generator model, checks the
// answer against the oracle and returns the client-observed latency.
func (e *env) issue(client int, s stmt, traced []*tracedClient) (ns int64, err error) {
	if s.before != nil {
		s.before()
	}
	var b *types.Batch
	if traced != nil {
		b, ns, err = traced[client].run(s)
	} else {
		t := time.Now()
		b, err = e.execute(client, s)
		ns = int64(time.Since(t))
	}
	if err == nil {
		err = s.check(b, &e.digests[client])
	}
	if err == nil && s.after != nil {
		s.after()
	}
	return ns, err
}

func tvMS(tv syscall.Timeval) float64 {
	return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3
}

// untilDeadline is the window predicate of a timed run: a client starts a new
// round only before the deadline, so every round that starts also finishes.
func untilDeadline(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return time.Now().Before(deadline) }
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything one run of one workload produced.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Sizes     map[string]int    `json:"sizes"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Shares is the traced run's split of the round p50 over layers, in
	// percent of the class-weighted client total.
	Shares map[string]float64 `json:"layer_shares_pct,omitempty"`
	// Replayed counts, per read class of a traced run, the statements whose
	// staged replay returned the rows the client got.
	Replayed map[string]int `json:"replayed,omitempty"`
	// Traced counts the statements of the traced half per class.
	Traced map[string]int `json:"traced,omitempty"`
}

// putter returns the function that files a metric of the given list in the
// report, with the list's unit; a name outside the list is a bug.
func (rep *report) putter(defs []metricDef) func(name string, v float64, samples int) {
	units := map[string]string{}
	for _, d := range defs {
		units[d.name] = d.unit
	}
	return func(name string, v float64, samples int) {
		unit, ok := units[name]
		if !ok {
			panic("benchmark: metric " + name + " is not declared")
		}
		rep.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between order
// statistics (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// runWorkload runs one workload once: set up (setupRepeats times), measure
// for opt.seconds, check, tear down.
func runWorkload(opt options) (*report, error) {
	wl := findWorkload(opt.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	runtime.GOMAXPROCS(pinnedGOMAXPROCS)
	if opt.tmpDir == "" {
		opt.tmpDir = scratchDir
	}
	repeats := setupRepeats
	if opt.quick {
		repeats = 1
	}
	var setups []float64
	var e *env
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(wl, opt); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	// Start every window from a collected heap, so the garbage of the
	// discarded set-ups is not charged to the first rounds.
	runtime.GC()

	rep := &report{Workload: wl.name, Seed: opt.seed, Sizes: e.inst.sizes, Trace: opt.trace, Metrics: map[string]metric{}}
	window := time.Duration(opt.seconds * float64(time.Second))
	var res *windowResult
	if opt.trace {
		var err error
		if res, err = e.tracedRun(window, opt, rep); err != nil {
			return nil, err
		}
	} else {
		res = e.window(untilDeadline(window), nil)
		put := rep.putter(endToEnd)
		put("setup_s", median(setups), len(setups))
		put("queries_per_s", res.rate, res.attempted-res.failed)
		put("round_p50_ms", quantile(res.roundsMS, 0.5), len(res.roundsMS))
		put("round_p90_ms", quantile(res.roundsMS, 0.9), len(res.roundsMS))
		put("cpu_ms_per_query", res.cpuMS, res.attempted)
		put("alloc_kb_per_query", res.allocKB, res.attempted)
	}
	if len(res.roundsMS) == 0 {
		return nil, fmt.Errorf("%s: no round finished in %v; the window is too short", wl.name, window)
	}
	rep.Attempted, rep.Failed, rep.FirstErr = res.attempted, res.failed, res.firstErr
	if e.inst.final != nil {
		rep.Attempted++
		if _, err := e.issue(0, e.inst.final(), nil); err != nil {
			rep.Failed++
			if rep.FirstErr == "" {
				rep.FirstErr = "final check: " + err.Error()
			}
		}
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics["error_share"] = metric{Value: float64(rep.Failed) / float64(rep.Attempted), Unit: "share", Samples: rep.Attempted}
	return rep, nil
}
