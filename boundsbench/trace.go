package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/pfaulty"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/strategy"
	"repro/internal/strategy/program"
	"repro/internal/trajectory"
)

// replayPlans is how many of a workload's plans the traced run
// replays in process. Cold-verify's replay names more engine keys than
// the cache holds, so it evicts as the timed run does.
func replayPlans(workload string) int {
	if workload == "simulate-heavy" {
		return 2000
	}
	return 6000
}

// referenceProbes is how many inputs time a layer that a workload's
// own requests never reach (e.g. the pfaulty simulator on
// warm-lookup): they come from the workload that does reach it, with
// the same seed.
const referenceProbes = 64

// overheadRounds is how many untraced and traced handler passes the
// tracing overhead compares, alternating.
const overheadRounds = 3

// Span is one timed call: name, start and end in ns since the trace
// began, the index of the span that caused it (-1 for none) and the
// replayed request it belongs to (-1 for probes of no request).
type Span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Req    int32
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer(capacity int) *Tracer {
	return &Tracer{t0: time.Now(), spans: make([]Span, 0, capacity)}
}

func (t *Tracer) begin(name string, parent, req int32) int32 {
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *Tracer) end(id int32) { t.spans[id].End = int64(time.Since(t.t0)) }

// span times fn as a child of parent.
func (t *Tracer) span(name string, parent, req int32, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each span's duration minus the durations of its
// children.
func (t *Tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write stores every span, with its self time, as one JSON line.
func (t *Tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	self := t.selfTimes()
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d,"self_ns":%d}`+"\n",
			i, s.Name, s.Start, s.End, s.Parent, s.Req, self[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations collects the durations (us) of the spans named name.
func (t *Tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// inproc is a server driven through ServeHTTP, with no transport.
type inproc struct {
	srv    *server.Server
	hashes []string
}

func httpRequest(req Request) *http.Request {
	hr := httptest.NewRequest(req.Method, req.Target, bytes.NewReader(req.Body))
	if req.Accept != "" {
		hr.Header.Set("Accept", req.Accept)
	}
	return hr
}

func (ip *inproc) exchange(req Request) (int, []byte, error) {
	rec := httptest.NewRecorder()
	ip.srv.ServeHTTP(rec, httpRequest(req))
	return rec.Code, rec.Body.Bytes(), nil
}

// newInproc sets a server up as the timed run does, through the
// handler.
func newInproc(pools Pools, w *Workload) (*inproc, error) {
	ip := &inproc{srv: newServer()}
	var err error
	ip.hashes, err = prepare(pools, w, ip)
	return ip, err
}

// replay is one pass of plans through a fresh server's handler. The
// requests and recorders are built before the pass starts.
type replay struct {
	ip   *inproc
	reqs []*http.Request
	recs []*httptest.ResponseRecorder
}

func newReplay(pools Pools, w *Workload, plans []Plan) (*replay, error) {
	ip, err := newInproc(pools, w)
	if err != nil {
		return nil, err
	}
	r := &replay{ip: ip, reqs: make([]*http.Request, len(plans)), recs: make([]*httptest.ResponseRecorder, len(plans))}
	for i := range plans {
		r.reqs[i] = httpRequest(w.render(&plans[i], ip.hashes))
		r.recs[i] = httptest.NewRecorder()
	}
	return r, nil
}

// check checks every recorded answer and returns the failure count.
func (r *replay) check(w *Workload, plans []Plan) (failed int, first error) {
	for i, rec := range r.recs {
		err := error(nil)
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		} else {
			err = w.checkBody(&plans[i], rec.Body.Bytes())
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("replayed %s: %w", plans[i].Op, err)
			}
		}
	}
	return failed, first
}

// runtimeSample reads the runtime's GC and CPU accounting.
type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64
	gcCycles                 uint64
	mallocs, bytes           uint64
}

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	runtime.GC() // flushes the CPU-class estimates
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		gcCPU: samples[0].Value.Float64(), totalCPU: samples[1].Value.Float64(), idleCPU: samples[2].Value.Float64(),
		gcCycles: samples[3].Value.Uint64(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
	}
}

// runTrace is the traced run. It replays the first replayPlans(w)
// plans in process, each pass on a fresh server set up like the timed
// run's: an untraced pass for counts (allocations, GC, engine, solver
// and kernel counters); untraced and traced passes through the
// handler, alternating, whose wall times give the tracing overhead;
// and a traced pass of the compute call each request makes plus the
// probes into the layers below it. A short loopback window gives the
// client latency that the transport metric compares with the
// handler's.
func runTrace(pools Pools, w *Workload, seed int64, seconds int) (Result, error) {
	plans := w.Plans[:min(len(w.Plans), replayPlans(w.Name))]
	n := float64(len(plans))
	out := map[string]Metric{}

	// Pass 1: counts. The kernel and solver counters are process-wide
	// and this pass runs first, so the solver memo holds only what the
	// set-up put there.
	kern0 := adversary.ReadKernelStats()
	r1, err := newReplay(pools, w, plans)
	if err != nil {
		return Result{}, err
	}
	sol0 := solver.Shared().Stats()
	eng0 := r1.ip.srv.Engine().Stats()
	rt0 := readRuntime()
	for i := range plans {
		r1.ip.srv.ServeHTTP(r1.recs[i], r1.reqs[i])
	}
	rt1 := readRuntime()
	eng1 := r1.ip.srv.Engine().Stats()
	sol1 := solver.Shared().Stats()
	kern1 := adversary.ReadKernelStats()
	failed, firstErr := r1.check(w, plans)
	out["server.allocs_per_req"] = Metric{float64(rt1.mallocs-rt0.mallocs) / n, "count"}
	out["server.alloc_bytes_per_req"] = Metric{float64(rt1.bytes-rt0.bytes) / n, "B"}
	out["runtime.gc_cpu_share"] = Metric{(rt1.gcCPU - rt0.gcCPU) / ((rt1.totalCPU - rt0.totalCPU) - (rt1.idleCPU - rt0.idleCPU)), "ratio"}
	// readRuntime's own collection at the end is not the replay's.
	out["runtime.gc_cycles_per_kreq"] = Metric{float64(rt1.gcCycles-rt0.gcCycles-1) * 1000 / n, "count"}
	hits, misses := eng1.Hits-eng0.Hits, eng1.Misses-eng0.Misses
	out["engine.hit_ratio"] = Metric{float64(hits) / float64(max(1, hits+misses)), "ratio"}
	out["engine.evictions_per_req"] = Metric{float64(eng1.Evictions-eng0.Evictions) / n, "count"}
	out["solver.misses_per_req"] = Metric{float64(sol1.Misses()-sol0.Misses()) / n, "count"}
	// The kernel counters include the set-up, so warm-lookup, whose
	// replay never builds an evaluator, reports its fill's reuse.
	builds, reuses := kern1.Builds-kern0.Builds, kern1.PoolReuses-kern0.PoolReuses

	// Passes 2 and 3, three times over: the handler untraced, then
	// traced. The last traced pass keeps its spans.
	var untraced, traced []float64
	var tr *Tracer
	for round := 0; round < overheadRounds; round++ {
		for _, withSpans := range []bool{false, true} {
			r, err := newReplay(pools, w, plans)
			if err != nil {
				return Result{}, err
			}
			var t *Tracer
			if withSpans {
				t = newTracer(len(plans) * 16)
			}
			t0 := time.Now()
			for i := range plans {
				if t == nil {
					r.ip.srv.ServeHTTP(r.recs[i], r.reqs[i])
					continue
				}
				id := t.begin("server.handler", -1, int32(i))
				r.ip.srv.ServeHTTP(r.recs[i], r.reqs[i])
				t.end(id)
			}
			if wall := time.Since(t0).Seconds(); withSpans {
				traced, tr = append(traced, wall), t
			} else {
				untraced = append(untraced, wall)
			}
			if f, err := r.check(w, plans); f > 0 {
				failed, firstErr = failed+f, err
			}
		}
	}
	overhead := median(traced) / median(untraced)
	out["trace.overhead_ratio"] = Metric{overhead, "ratio"}

	// Pass 4: the compute calls and the layer probes, traced.
	pr, err := newProber(pools, w)
	if err != nil {
		return Result{}, err
	}
	for i := range plans {
		if err := pr.replay(tr, &plans[i], int32(i)); err != nil {
			return Result{}, fmt.Errorf("probe %s: %w", plans[i].Op, err)
		}
	}
	if err := pr.referenceProbes(tr, pools, seed); err != nil {
		return Result{}, err
	}
	if err := pr.compileProbes(tr, pools); err != nil {
		return Result{}, err
	}
	if builds == 0 {
		// Simulate-heavy builds no evaluator at all: report the reuse of
		// the kernel probes.
		kern2 := adversary.ReadKernelStats()
		builds, reuses = kern2.Builds-kern1.Builds, kern2.PoolReuses-kern1.PoolReuses
	}
	out["adversary.pool_reuse_ratio"] = Metric{float64(reuses) / float64(max(1, builds)), "ratio"}

	handler := tr.durations("server.handler")
	compute := tr.durations("server.compute")
	self := make([]float64, len(handler))
	for i := range handler {
		self[i] = handler[i] - compute[i]
	}
	for name, metric := range map[string]string{
		"server.handler_us":         "server.handler",
		"server.compute_us":         "server.compute",
		"engine.run_hit_us":         "engine.run_hit",
		"engine.run_miss_us":        "engine.run_miss",
		"solver.strategy_us":        "solver.strategy",
		"adversary.exact_us":        "adversary.exact",
		"strategy.rounds_us":        "strategy.rounds",
		"strategy.script_rounds_us": "strategy.script_rounds",
		"strategy.compile_us":       "strategy.compile",
		"bounds.closed_form_us":     "bounds.closed_form",
		"pfaulty.trials_us":         "pfaulty.trials",
		"sim.timeline_us":           "sim.timeline",
		"adversary.shoreline_us":    "adversary.shoreline",
		"engine.evacuation_us":      "engine.evacuation",
	} {
		d := tr.durations(metric)
		if len(d) == 0 {
			return Result{}, fmt.Errorf("no %s spans", metric)
		}
		out[name] = Metric{median(d), "us"}
	}
	out["server.self_us"] = Metric{median(self), "us"}
	out["adversary.breakpoints_per_cell"] = Metric{float64(pr.breakpoints) / float64(max(1, pr.evaluations)), "count"}
	out["loadgen.plan_us"] = Metric{loadgenPlanUS(seed), "us"}

	spanFile := filepath.Join(".bench_build", "trace", w.Name+".jsonl")
	if err := tr.write(spanFile); err != nil {
		return Result{}, fmt.Errorf("span file: %w", err)
	}

	// The loopback window for the client side of server.transport_us.
	conns := clients()
	ls, _, err := setUps(pools, w, conns, 1)
	if err != nil {
		return Result{}, err
	}
	win := runWindow(ls, w, time.Duration(max(1, seconds/2))*time.Second)
	if err := ls.close(); err != nil {
		return Result{}, err
	}
	report(w.Name+" (loopback, for the transport metric)", win)
	clientP50 := win.sliceMedian(func(s sliceResult) float64 { return quantileSorted(s.lat, 0.5) })
	out["server.transport_us"] = Metric{clientP50*1e6 - median(handler), "us"}
	failed += win.failed

	fmt.Fprintf(os.Stderr, "%s: traced %d replayed requests, %d spans in %s, tracing overhead %.3fx\n",
		w.Name, len(plans), len(tr.spans), spanFile, overhead)
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "  failed:", firstErr)
	}
	// Every pass through the handler was checked: the counting pass and
	// the untraced and traced overhead passes.
	attempted := (1+2*overheadRounds)*len(plans) + win.attempted
	return Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

// loadgenPlanUS is the median cost of one loadgen.Sampler.Plan on the
// default mix, for reference: the benchmark itself plans before its
// window opens.
func loadgenPlanUS(seed int64) float64 {
	mix, err := loadgen.ParseMix(loadgen.DefaultMixSpec)
	if err != nil {
		panic(err) // the package's own default spec
	}
	s := loadgen.NewSampler(seed, mix)
	d := make([]float64, 2000)
	for i := range d {
		t0 := time.Now()
		s.Plan(i)
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(d)
}

// prober times the compute call of each replayed request on a second
// server set up like the first (its cache sees the same keys in the
// same order), and the public calls of the layers below it.
type prober struct {
	w        *Workload
	ip       *inproc
	ctx      context.Context
	probeEng *engine.Engine
	progs    []*program.Program
	reg      *registry.Registry

	breakpoints, evaluations int
}

func newProber(pools Pools, w *Workload) (*prober, error) {
	ip, err := newInproc(pools, w)
	if err != nil {
		return nil, err
	}
	pr := &prober{
		w: w, ip: ip,
		ctx:      solver.With(context.Background(), ip.srv.Engine().Solver()),
		probeEng: engine.NewWithCache(1, 16),
		reg:      registry.Default(),
	}
	for _, s := range w.Scripts {
		p, err := program.Compile(s)
		if err != nil {
			return nil, err
		}
		pr.progs = append(pr.progs, p)
	}
	return pr, nil
}

// closedForm is what the bounds endpoint computes for one cell.
func closedForm(m, k, f int) error {
	regime, err := bounds.Classify(m, k, f)
	if err != nil {
		return err
	}
	if _, err := bounds.Rho(m, k, f); err != nil {
		return err
	}
	if regime == bounds.RegimeUnsolvable {
		return nil
	}
	if _, err := bounds.AMKF(m, k, f); err != nil {
		return err
	}
	if regime == bounds.RegimeSearch {
		_, err = bounds.OptimalAlpha(m*(f+1), k)
	}
	return err
}

// replay times plan p's compute call and probes its layers.
func (pr *prober) replay(tr *Tracer, p *Plan, req int32) error {
	root := tr.begin("replay", -1, req)
	defer tr.end(root)
	eng := pr.ip.srv.Engine()
	m, k, f := int(p.M), int(p.K), int(p.F)
	var (
		job   engine.Job
		inst  strategy.Strategy
		exact *Item // the verify key whose kernel work is probed
	)
	var compute func() error
	switch p.Op {
	case opBounds:
		compute = func() error { return closedForm(m, k, f) }
	case opVerify, opScripted:
		exact = &Item{Verify: true, M: p.M, K: p.K, F: p.F, Horizon: p.Horizon}
		job = engine.VerifyUpper{M: m, K: k, F: f, Horizon: p.Horizon}
		if p.Op == opScripted {
			var err error
			if inst, err = pr.progs[p.Variant].New(m, k, f); err != nil {
				return err
			}
			job = engine.ExactRatio{Strategy: inst, Faults: f, Horizon: p.Horizon}
		}
		compute = func() error { _, err := eng.Run(pr.ctx, job); return err }
	case opSweep, opSweepND:
		cells := engine.Grid(m, int(p.KMax))
		for _, c := range cells {
			if regimeOf(c.M, c.K, c.F) == "search" {
				exact = &Item{Verify: true, M: int8(c.M), K: int8(c.K), F: int8(c.F), Horizon: p.Horizon}
			}
		}
		job = engine.VerifyUpper{M: int(exact.M), K: int(exact.K), F: int(exact.F), Horizon: p.Horizon}
		compute = func() error { _, err := server.ComputeSweep(pr.ctx, eng, cells, p.Horizon); return err }
	case opBatch:
		items := pr.w.Items[p.Item : p.Item+p.NItems]
		for i := range items {
			if items[i].Verify && exact == nil {
				exact = &items[i]
				job = engine.VerifyUpper{M: int(exact.M), K: int(exact.K), F: int(exact.F), Horizon: exact.Horizon}
			}
		}
		compute = func() error {
			for _, it := range items {
				var err error
				if it.Verify {
					_, err = eng.Run(pr.ctx, engine.VerifyUpper{M: int(it.M), K: int(it.K), F: int(it.F), Horizon: it.Horizon})
				} else {
					err = closedForm(int(it.M), int(it.K), int(it.F))
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
	default:
		sc, err := pr.reg.Get(simModel(p.Op))
		if err != nil {
			return err
		}
		sreq := registry.Request{M: m, K: k, F: f, Horizon: p.Horizon, P: p.P, Seed: p.Seed, Samples: int(p.Samples)}
		compute = func() error { _, err := server.ComputeSimulate(pr.ctx, eng, sc, sreq, int(p.Points)); return err }
		row := sreq
		row.Dist = p.Horizon
		if job, err = sc.SimulateJob(pr.ctx, row); err != nil {
			return err
		}
	}
	if err := tr.span("server.compute", root, req, compute); err != nil {
		return err
	}
	if job != nil {
		pr.probeEng.ResetCache()
		if err := tr.span("engine.run_miss", root, req, func() error { _, err := pr.probeEng.Run(pr.ctx, job); return err }); err != nil {
			return err
		}
		if err := tr.span("engine.run_hit", root, req, func() error { _, err := pr.probeEng.Run(pr.ctx, job); return err }); err != nil {
			return err
		}
	}
	switch p.Op {
	case opBounds, opVerify, opScripted, opSimCrash, opSimEvacuation:
		if err := tr.span("bounds.closed_form", root, req, func() error { return closedForm(m, k, f) }); err != nil {
			return err
		}
	case opBatch:
		it := pr.w.Items[p.Item]
		if err := tr.span("bounds.closed_form", root, req, func() error { return closedForm(int(it.M), int(it.K), int(it.F)) }); err != nil {
			return err
		}
	}
	if exact != nil {
		if err := pr.kernelProbes(tr, root, req, exact, inst); err != nil {
			return err
		}
	}
	if p.Op >= opSimPfaulty {
		return pr.familyProbe(tr, root, req, p)
	}
	return nil
}

// kernelProbes times the solver, the strategy generators and the exact
// adversary on one verify key; s is the scripted strategy of a
// scripted verify, nil for the built-in one.
func (pr *prober) kernelProbes(tr *Tracer, root, req int32, it *Item, s strategy.Strategy) error {
	m, k, f, h := int(it.M), int(it.K), int(it.F), it.Horizon
	fresh := solver.New()
	if err := tr.span("solver.strategy", root, req, func() error { _, err := fresh.Strategy(m, k, f); return err }); err != nil {
		return err
	}
	native, err := solver.Shared().Strategy(m, k, f)
	if err != nil {
		return err
	}
	script, err := strategy.CyclicProgram().New(m, k, f)
	if err != nil {
		return err
	}
	for name, gen := range map[string]strategy.Strategy{"strategy.rounds": native, "strategy.script_rounds": script} {
		err := tr.span(name, root, req, func() error {
			for r := 0; r < k; r++ {
				if _, err := gen.Rounds(r, h); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if s == nil {
		s = native
	}
	exact := tr.begin("adversary.exact", root, req)
	id := tr.begin("adversary.new_evaluator", exact, req)
	ev, err := adversary.NewEvaluator(s, h)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("adversary.exact_ratio", exact, req)
	_, err = ev.ExactRatio(pr.ctx, f)
	tr.end(id)
	tr.end(exact)
	pr.breakpoints += ev.Breakpoints()
	pr.evaluations++
	ev.Release()
	return err
}

// familyProbe times the simulator of a simulate request's family on
// its last row, at the horizon.
func (pr *prober) familyProbe(tr *Tracer, root, req int32, p *Plan) error {
	m, k, f, x := int(p.M), int(p.K), int(p.F), p.Horizon
	switch p.Op {
	case opSimPfaulty:
		b, _, err := solver.Shared().PFaultyBase(p.P)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(p.Seed))
		return tr.span("pfaulty.trials", root, req, func() error {
			_, err := pfaulty.MonteCarloRatioCtx(pr.ctx, b, p.P, x, int(p.Samples), rng)
			return err
		})
	case opSimCrash:
		s, err := solver.Shared().Strategy(m, k, f)
		if err != nil {
			return err
		}
		hf, err := solver.Shared().SimHorizonFactor(m, k, f)
		if err != nil {
			return err
		}
		return tr.span("sim.timeline", root, req, func() error {
			for ray := 1; ray <= m; ray++ {
				cfg := sim.Config{Strategy: s, Faults: f, Target: trajectory.Point{Ray: ray, Dist: x}, HorizonFactor: hf}
				if _, err := sim.Run(cfg); err != nil {
					return err
				}
			}
			return nil
		})
	case opSimShoreline:
		return tr.span("adversary.shoreline", root, req, func() error {
			_, err := engine.ShorelineSim{K: k, F: f, Dist: x}.Run(pr.ctx)
			return err
		})
	default:
		return tr.span("engine.evacuation", root, req, func() error {
			_, err := engine.EvacuationSim{K: k, F: f, Dist: x}.Run(pr.ctx)
			return err
		})
	}
}

// referenceProbes times, on reference inputs, every layer the
// workload's own requests left without a span.
func (pr *prober) referenceProbes(tr *Tracer, pools Pools, seed int64) error {
	have := map[string]bool{}
	for _, s := range tr.spans {
		have[s.Name] = true
	}
	if !have["adversary.exact"] {
		cold, err := generate(pools, "cold-verify", seed, 4*referenceProbes)
		if err != nil {
			return err
		}
		done := 0
		for i := range cold.Plans {
			p := &cold.Plans[i]
			if p.Op != opVerify || done == referenceProbes {
				continue
			}
			it := &Item{Verify: true, M: p.M, K: p.K, F: p.F, Horizon: p.Horizon}
			if err := pr.kernelProbes(tr, -1, -1, it, nil); err != nil {
				return err
			}
			done++
		}
	}
	families := map[Op]string{opSimPfaulty: "pfaulty.trials", opSimCrash: "sim.timeline", opSimShoreline: "adversary.shoreline", opSimEvacuation: "engine.evacuation"}
	missing := false
	for _, name := range families {
		missing = missing || !have[name]
	}
	if !missing {
		return nil
	}
	simW, err := generate(pools, "simulate-heavy", seed, 8*referenceProbes)
	if err != nil {
		return err
	}
	count := map[Op]int{}
	for i := range simW.Plans {
		p := &simW.Plans[i]
		if have[families[p.Op]] || count[p.Op] == referenceProbes {
			continue
		}
		if err := pr.familyProbe(tr, -1, -1, p); err != nil {
			return err
		}
		count[p.Op]++
	}
	return nil
}

// compileProbes times compiling the scripted variants of cold-verify
// (the programs its set-up registers), 16 times each.
func (pr *prober) compileProbes(tr *Tracer, pools Pools) error {
	scripts := variantScripts(pools.Cold.ScriptScales)
	for i := 0; i < 16; i++ {
		for _, s := range scripts {
			if err := tr.span("strategy.compile", -1, -1, func() error { _, err := program.Compile(s); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}
