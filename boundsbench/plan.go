package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The benchmark's inputs come from the data files below and its own
// seeded generator, never from internal/loadgen: a change to loadgen's
// pools, sampler or golden prefix leaves the benchmark's requests as
// they are.

//go:embed pools.json
var poolsJSON []byte

//go:embed cyclic_variant.dsl
var cyclicVariantTemplate string

// Pools is pools.json: one section per workload.
type Pools struct {
	Warm WarmPools `json:"warm_lookup"`
	Cold ColdPools `json:"cold_verify"`
	Sim  SimPools  `json:"simulate_heavy"`
}

// WarmPools is the warm-lookup working set (the make-up of
// loadgen.DefaultPools when the benchmark was written).
type WarmPools struct {
	Mix            map[string]float64 `json:"mix"`
	VerifyHorizons []float64          `json:"verify_horizons"`
	TripleMs       []int              `json:"triple_ms"`
	TripleKMax     int                `json:"triple_kmax"`
	BoundsMs       []int              `json:"bounds_ms"`
	BoundsKMax     int                `json:"bounds_kmax"`
	BatchSizes     []int              `json:"batch_sizes"`
	SweepKMax      []int              `json:"sweep_kmax"`
	SweepHorizons  []float64          `json:"sweep_horizons"`
}

// ColdPools draws keys no earlier request named: continuous horizons.
type ColdPools struct {
	Mix          map[string]float64 `json:"mix"`
	TripleMs     []int              `json:"triple_ms"`
	TripleKMax   int                `json:"triple_kmax"`
	HorizonMin   float64            `json:"horizon_min"`
	HorizonMax   float64            `json:"horizon_max"`
	SweepMs      []int              `json:"sweep_ms"`
	SweepKMax    []int              `json:"sweep_kmax"`
	ScriptScales []string           `json:"script_scales"`
}

// SimPools is the simulate-heavy make-up.
type SimPools struct {
	Mix            map[string]float64 `json:"mix"`
	HorizonMin     float64            `json:"horizon_min"`
	HorizonMax     float64            `json:"horizon_max"`
	Points         []int              `json:"points"`
	PfaultyP       []float64          `json:"pfaulty_p"`
	PfaultySamples []int              `json:"pfaulty_samples"`
	TripleMs       []int              `json:"triple_ms"`
	TripleKMax     int                `json:"triple_kmax"`
	ShorelineKFs   [][2]int           `json:"shoreline_kfs"`
	EvacuationFs   []int              `json:"evacuation_fs"`
}

func loadPools() (Pools, error) {
	var p Pools
	if err := json.Unmarshal(poolsJSON, &p); err != nil {
		return p, fmt.Errorf("pools.json: %w", err)
	}
	return p, nil
}

// variantScripts renders the scripted cyclic variants, one per scale.
// Every scale is an exact binary fraction >= 1, so each variant only
// adds coverage to the paper's strategy and compiles to its own
// content hash.
func variantScripts(scales []string) []string {
	out := make([]string, len(scales))
	for i, s := range scales {
		out[i] = strings.Replace(cyclicVariantTemplate, "SCALE", s, 1)
	}
	return out
}

// Op is one kind of request.
type Op uint8

const (
	opBounds Op = iota
	opVerify
	opScripted // /v1/verify?strategy=<hash>
	opSweep    // JSON /v1/sweep
	opSweepND  // NDJSON /v1/sweep
	opBatch
	opSimPfaulty
	opSimCrash
	opSimShoreline
	opSimEvacuation
	numOps
)

var opNames = [numOps]string{"bounds", "verify", "scripted", "sweep", "sweep-ndjson", "batch",
	"sim-pfaulty", "sim-crash", "sim-shoreline", "sim-evacuation"}

func (o Op) String() string { return opNames[o] }

// Plan is one fully determined request, kept compact because a run
// holds every plan in memory before its window starts.
type Plan struct {
	Op      Op
	M, K, F int8
	KMax    int8  // sweeps
	Points  int8  // simulate grid size
	Variant int8  // scripted strategy variant
	Samples int32 // pfaulty sample count
	Item    int32 // batch: first item in Workload.Items
	NItems  int32
	Horizon float64
	P       float64 // pfaulty fault probability
	Seed    int64   // pfaulty Monte-Carlo seed
}

// Item is one /v1/batch sub-request.
type Item struct {
	Verify  bool
	M, K, F int8
	Horizon float64
}

// Workload is a generated input set.
type Workload struct {
	Name    string
	Plans   []Plan
	Items   []Item
	Scripts []string // cold-verify's registered variants
	// Cycle lets the closed loop wrap around Plans: only warm-lookup,
	// whose requests are meant to repeat.
	Cycle bool
}

var workloadNames = []string{"warm-lookup", "cold-verify", "simulate-heavy"}

// searchTriples lists the (m, k, f) with f < k < m(f+1), the regime
// where the paper's optimal strategy exists, for m in ms and k <= kmax.
func searchTriples(ms []int, kmax int) [][3]int {
	var out [][3]int
	for _, m := range ms {
		for k := 1; k <= kmax; k++ {
			for f := 0; f < k; f++ {
				if regimeOf(m, k, f) == "search" {
					out = append(out, [3]int{m, k, f})
				}
			}
		}
	}
	return out
}

// mixPicker draws ops by weight; the weights' op names are sorted so
// the draw sequence does not depend on map order.
type mixPicker struct {
	ops []string
	cum []float64
}

func newMixPicker(mix map[string]float64) mixPicker {
	var mp mixPicker
	for op := range mix {
		mp.ops = append(mp.ops, op)
	}
	sort.Strings(mp.ops)
	total := 0.0
	for _, op := range mp.ops {
		total += mix[op]
		mp.cum = append(mp.cum, total)
	}
	for i := range mp.cum {
		mp.cum[i] /= total
	}
	return mp
}

func (mp mixPicker) pick(rng *rand.Rand) string {
	u := rng.Float64()
	for i, c := range mp.cum {
		if u < c {
			return mp.ops[i]
		}
	}
	return mp.ops[len(mp.ops)-1]
}

func pick[T any](rng *rand.Rand, pool []T) T { return pool[rng.IntN(len(pool))] }

// logUniform draws from [lo, hi] uniformly in log scale. Horizons are
// continuous, so two draws name the same engine key with probability
// ~n^2/2^52 — no request of a run repeats another's key.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// generate builds n plans of the named workload from seed. Only the
// seed and the pools decide the inputs.
func generate(pools Pools, name string, seed int64, n int) (*Workload, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	w := &Workload{Name: name, Plans: offHeap[Plan](n)[:0]}
	switch name {
	case "warm-lookup":
		wp := pools.Warm
		w.Cycle = true
		w.Items = offHeap[Item](n * slices.Max(wp.BatchSizes))[:0]
		mix := newMixPicker(wp.Mix)
		triples := searchTriples(wp.TripleMs, wp.TripleKMax)
		boundsCell := func() (int8, int8, int8) {
			k := 1 + rng.IntN(wp.BoundsKMax)
			return int8(pick(rng, wp.BoundsMs)), int8(k), int8(rng.IntN(k))
		}
		for len(w.Plans) < n {
			var p Plan
			switch op := mix.pick(rng); op {
			case "bounds":
				p.Op = opBounds
				p.M, p.K, p.F = boundsCell()
			case "verify":
				t := pick(rng, triples)
				p = Plan{Op: opVerify, M: int8(t[0]), K: int8(t[1]), F: int8(t[2]), Horizon: pick(rng, wp.VerifyHorizons)}
			case "batch":
				size := pick(rng, wp.BatchSizes)
				p = Plan{Op: opBatch, Item: int32(len(w.Items)), NItems: int32(size)}
				for j := 0; j < size; j++ {
					var it Item
					if rng.IntN(2) == 0 {
						it.M, it.K, it.F = boundsCell()
					} else {
						t := pick(rng, triples)
						it = Item{Verify: true, M: int8(t[0]), K: int8(t[1]), F: int8(t[2]), Horizon: pick(rng, wp.VerifyHorizons)}
					}
					w.Items = append(w.Items, it)
				}
			case "sweep":
				p = Plan{Op: opSweepND, M: 2, KMax: int8(pick(rng, wp.SweepKMax)), Horizon: pick(rng, wp.SweepHorizons)}
			default:
				return nil, fmt.Errorf("warm-lookup mix: unknown op %q", op)
			}
			w.Plans = append(w.Plans, p)
		}
	case "cold-verify":
		cp := pools.Cold
		mix := newMixPicker(cp.Mix)
		triples := searchTriples(cp.TripleMs, cp.TripleKMax)
		w.Scripts = variantScripts(cp.ScriptScales)
		for len(w.Plans) < n {
			h := logUniform(rng, cp.HorizonMin, cp.HorizonMax)
			var p Plan
			switch op := mix.pick(rng); op {
			case "verify", "scripted":
				t := pick(rng, triples)
				p = Plan{Op: opVerify, M: int8(t[0]), K: int8(t[1]), F: int8(t[2]), Horizon: h}
				if op == "scripted" {
					p.Op = opScripted
					p.Variant = int8(rng.IntN(len(w.Scripts)))
				}
			case "sweep":
				p = Plan{Op: opSweep, M: int8(pick(rng, cp.SweepMs)), KMax: int8(pick(rng, cp.SweepKMax)), Horizon: h}
			default:
				return nil, fmt.Errorf("cold-verify mix: unknown op %q", op)
			}
			w.Plans = append(w.Plans, p)
		}
	case "simulate-heavy":
		sp := pools.Sim
		mix := newMixPicker(sp.Mix)
		triples := searchTriples(sp.TripleMs, sp.TripleKMax)
		for len(w.Plans) < n {
			p := Plan{Horizon: logUniform(rng, sp.HorizonMin, sp.HorizonMax), Points: int8(pick(rng, sp.Points))}
			switch op := mix.pick(rng); op {
			case "pfaulty":
				p.Op, p.M, p.K, p.F = opSimPfaulty, 1, 1, 0
				p.P = pick(rng, sp.PfaultyP)
				p.Samples = int32(pick(rng, sp.PfaultySamples))
				p.Seed = 1 + rng.Int64N(1<<40) // a fresh Monte-Carlo stream per request
			case "crash":
				t := pick(rng, triples)
				p.Op, p.M, p.K, p.F = opSimCrash, int8(t[0]), int8(t[1]), int8(t[2])
			case "shoreline":
				kf := pick(rng, sp.ShorelineKFs)
				p.Op, p.M, p.K, p.F = opSimShoreline, 2, int8(kf[0]), int8(kf[1])
			case "evacuation":
				f := pick(rng, sp.EvacuationFs)
				p.Op, p.M, p.K, p.F = opSimEvacuation, 2, int8(2*f+1), int8(f)
			default:
				return nil, fmt.Errorf("simulate-heavy mix: unknown op %q", op)
			}
			w.Plans = append(w.Plans, p)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// warmFill lists the requests that put warm-lookup's whole working set
// into the engine cache: every pooled verify key, and the largest
// sweep grid at each pooled horizon (smaller grids are its prefixes).
// Bounds answers are closed-form and never touch the cache.
func warmFill(wp WarmPools) []Plan {
	var out []Plan
	for _, t := range searchTriples(wp.TripleMs, wp.TripleKMax) {
		for _, h := range wp.VerifyHorizons {
			out = append(out, Plan{Op: opVerify, M: int8(t[0]), K: int8(t[1]), F: int8(t[2]), Horizon: h})
		}
	}
	kmax := 0
	for _, k := range wp.SweepKMax {
		kmax = max(kmax, k)
	}
	for _, h := range wp.SweepHorizons {
		out = append(out, Plan{Op: opSweep, M: 2, KMax: int8(kmax), Horizon: h})
	}
	return out
}

// Request is a rendered plan.
type Request struct {
	Method string
	Target string // path and query
	Body   []byte
	Accept string
}

// fmtFloat writes a float exactly and without an exponent, whose '+'
// a query string would read as a space.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// render turns a plan into its HTTP request; hashes are the registered
// content hashes of the workload's scripts.
func (w *Workload) render(p *Plan, hashes []string) Request {
	var sb strings.Builder
	mkf := func(path string, m, k, f int8) {
		sb.WriteString(path)
		sb.WriteString("?m=")
		sb.WriteString(strconv.Itoa(int(m)))
		sb.WriteString("&k=")
		sb.WriteString(strconv.Itoa(int(k)))
		sb.WriteString("&f=")
		sb.WriteString(strconv.Itoa(int(f)))
	}
	req := Request{Method: "GET"}
	switch p.Op {
	case opBounds:
		mkf("/v1/bounds", p.M, p.K, p.F)
	case opVerify, opScripted:
		mkf("/v1/verify", p.M, p.K, p.F)
		sb.WriteString("&horizon=")
		sb.WriteString(fmtFloat(p.Horizon))
		if p.Op == opScripted {
			sb.WriteString("&strategy=")
			sb.WriteString(hashes[p.Variant])
		}
	case opSweep, opSweepND:
		fmt.Fprintf(&sb, "/v1/sweep?m=%d&kmax=%d&horizon=%s", p.M, p.KMax, fmtFloat(p.Horizon))
		if p.Op == opSweepND {
			req.Accept = "application/x-ndjson"
		}
	case opBatch:
		req.Method = "POST"
		sb.WriteString("/v1/batch")
		req.Body = w.batchBody(p)
	default:
		mkf("/v1/simulate", p.M, p.K, p.F)
		sb.WriteString("&model=")
		sb.WriteString(simModel(p.Op))
		sb.WriteString("&horizon=")
		sb.WriteString(fmtFloat(p.Horizon))
		sb.WriteString("&points=")
		sb.WriteString(strconv.Itoa(int(p.Points)))
		if p.Op == opSimPfaulty {
			fmt.Fprintf(&sb, "&p=%s&samples=%d&seed=%d", fmtFloat(p.P), p.Samples, p.Seed)
		}
	}
	req.Target = sb.String()
	return req
}

func simModel(op Op) string {
	switch op {
	case opSimPfaulty:
		return "pfaulty-halfline"
	case opSimShoreline:
		return "shoreline"
	case opSimEvacuation:
		return "evacuation-line"
	default:
		return "crash"
	}
}

func (w *Workload) batchBody(p *Plan) []byte {
	b := []byte{'['}
	for j, it := range w.Items[p.Item : p.Item+p.NItems] {
		if j > 0 {
			b = append(b, ',')
		}
		if it.Verify {
			b = fmt.Appendf(b, `{"op":"verify","m":%d,"k":%d,"f":%d,"horizon":%s}`, it.M, it.K, it.F, fmtFloat(it.Horizon))
		} else {
			b = fmt.Appendf(b, `{"op":"bounds","m":%d,"k":%d,"f":%d}`, it.M, it.K, it.F)
		}
	}
	return append(b, ']')
}
