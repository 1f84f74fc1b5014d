package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The checker recomputes every quantity it compares against from the
// formulas of the papers, never by calling the program's packages.

// regimeOf classifies (m, k, f): the target cannot be confirmed when
// every robot may be faulty, f+1 robots per ray suffice when
// k >= m(f+1), and the search regime lies between.
func regimeOf(m, k, f int) string {
	switch {
	case f >= k:
		return "unsolvable"
	case k >= m*(f+1):
		return "trivial"
	default:
		return "search"
	}
}

// lambda is the tight crash-fault bound of Theorems 1 and 6:
// 2 rho^rho / (rho-1)^(rho-1) + 1 with rho = m(f+1)/k, for the search
// regime.
func lambda(m, k, f int) float64 {
	rho := float64(m*(f+1)) / float64(k)
	return 2*math.Pow(rho, rho)/math.Pow(rho-1, rho-1) + 1
}

// shorelineSec is the spread-ray shoreline ratio sec((f+1) pi / k).
func shorelineSec(k, f int) float64 { return 1 / math.Cos(float64(f+1)*math.Pi/float64(k)) }

// verifyGapTol is how far below lambda an exact sup over [1, horizon)
// may lie. The optimal strategy's first turn is fixed, so the deficit
// at the last turn point below the horizon shrinks like 1/horizon; over
// 20000 random (triple, horizon) draws with m <= 5, k <= 8 the largest
// relative deficit times the horizon was 0.22, so 1/horizon leaves a
// margin of 4.5.
func verifyGapTol(horizon float64) float64 { return 1 / horizon }

// Tolerances of the exact comparisons.
const (
	relExact = 1e-12 // formula-vs-formula agreement in float64
	// pfaultyClosedTol covers the server's optimal base, a
	// golden-section minimum of a flat objective, good to ~1e-8.
	pfaultyClosedTol = 1e-6
	// mcFalseAlarm is the chance a correct Monte-Carlo row fails its
	// check.
	mcFalseAlarm = 1e-12
)

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// num is a JSON number the server writes as null for NaN and ±Inf;
// null reads as NaN. A value type, so decoding an answer allocates
// little.
type num float64

func (v *num) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = num(math.NaN())
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	*v = num(f)
	return err
}

func isNull(v num) bool { return math.IsNaN(float64(v)) }

func val(v num) float64 { return float64(v) }

type boundsAnswer struct {
	Scenario  string  `json:"scenario"`
	M         int     `json:"m"`
	K         int     `json:"k"`
	F         int     `json:"f"`
	Q         int     `json:"q"`
	Rho       float64 `json:"rho"`
	Regime    string  `json:"regime"`
	Lower     num     `json:"lower"`
	Upper     num     `json:"upper"`
	HasUpper  bool    `json:"has_upper"`
	AlphaStar num     `json:"alpha_star"`
}

type verifyAnswer struct {
	Scenario  string  `json:"scenario"`
	M         int     `json:"m"`
	K         int     `json:"k"`
	F         int     `json:"f"`
	Horizon   float64 `json:"horizon"`
	Value     num     `json:"value"`
	Lower     num     `json:"lower"`
	RelGap    num     `json:"rel_gap"`
	Evaluated bool    `json:"evaluated"`
	WorstRay  int     `json:"worst_ray"`
	WorstX    num     `json:"worst_x"`
}

type sweepCell struct {
	M         int    `json:"m"`
	K         int    `json:"k"`
	F         int    `json:"f"`
	Q         int    `json:"q"`
	Regime    string `json:"regime"`
	Closed    num    `json:"closed"`
	Evaluated bool   `json:"evaluated"`
	Measured  num    `json:"measured"`
	WorstRay  int    `json:"worst_ray"`
	WorstX    num    `json:"worst_x"`
	Error     string `json:"error"`
}

type sweepTable struct {
	Horizon float64     `json:"horizon"`
	Cells   []sweepCell `json:"cells"`
}

type simRow struct {
	Dist    float64 `json:"dist"`
	Value   num     `json:"value"`
	Closed  num     `json:"closed"`
	Samples int     `json:"samples"`
	Seed    int64   `json:"seed"`
	Clamped bool    `json:"clamped"`
	Error   string  `json:"error"`
}

type simTable struct {
	Scenario string   `json:"scenario"`
	M        int      `json:"m"`
	K        int      `json:"k"`
	F        int      `json:"f"`
	Horizon  float64  `json:"horizon"`
	Points   int      `json:"points"`
	P        float64  `json:"p"`
	Rows     []simRow `json:"rows"`
}

type batchRow struct {
	Index  int             `json:"index"`
	Op     string          `json:"op"`
	Status int             `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

type batchAnswer struct {
	Count  int        `json:"count"`
	Failed int        `json:"failed"`
	Rows   []batchRow `json:"rows"`
}

// checkBody checks one 200 answer to plan p.
func (w *Workload) checkBody(p *Plan, body []byte) error {
	m, k, f := int(p.M), int(p.K), int(p.F)
	switch p.Op {
	case opBounds:
		return decodeAnd(body, func(a *boundsAnswer) error { return checkBounds(a, m, k, f) })
	case opVerify, opScripted:
		return decodeAnd(body, func(a *verifyAnswer) error { return checkVerify(a, m, k, f, p.Horizon) })
	case opSweep:
		return decodeAnd(body, func(t *sweepTable) error {
			if t.Horizon != p.Horizon {
				return fmt.Errorf("sweep horizon %v, asked %v", t.Horizon, p.Horizon)
			}
			return checkSweepCells(t.Cells, m, int(p.KMax), p.Horizon)
		})
	case opSweepND:
		return checkSweepNDJSON(body, m, int(p.KMax), p.Horizon)
	case opBatch:
		return decodeAnd(body, func(a *batchAnswer) error { return checkBatch(a, w.Items[p.Item:p.Item+p.NItems]) })
	default:
		return decodeAnd(body, func(t *simTable) error { return checkSimulate(t, p) })
	}
}

func decodeAnd[T any](body []byte, check func(*T) error) error {
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return check(&v)
}

func checkBounds(a *boundsAnswer, m, k, f int) error {
	q := m * (f + 1)
	if a.Scenario != "crash" || a.M != m || a.K != k || a.F != f || a.Q != q {
		return fmt.Errorf("bounds echo %s (%d,%d,%d) q=%d, asked crash (%d,%d,%d) q=%d", a.Scenario, a.M, a.K, a.F, a.Q, m, k, f, q)
	}
	if !relClose(a.Rho, float64(q)/float64(k), relExact) {
		return fmt.Errorf("bounds (%d,%d,%d): rho %v, want %v", m, k, f, a.Rho, float64(q)/float64(k))
	}
	regime := regimeOf(m, k, f)
	if a.Regime != regime {
		return fmt.Errorf("bounds (%d,%d,%d): regime %q, want %q", m, k, f, a.Regime, regime)
	}
	switch regime {
	case "unsolvable":
		if !isNull(a.Lower) || !isNull(a.Upper) || a.HasUpper || !isNull(a.AlphaStar) {
			return fmt.Errorf("bounds (%d,%d,%d): unsolvable cell carries a bound", m, k, f)
		}
	case "trivial":
		if val(a.Lower) != 1 || val(a.Upper) != 1 || !a.HasUpper || !isNull(a.AlphaStar) {
			return fmt.Errorf("bounds (%d,%d,%d): trivial cell lower %v upper %v, want 1", m, k, f, val(a.Lower), val(a.Upper))
		}
	default:
		lam := lambda(m, k, f)
		if !relClose(val(a.Lower), lam, relExact) || !relClose(val(a.Upper), lam, relExact) || !a.HasUpper {
			return fmt.Errorf("bounds (%d,%d,%d): lower %v upper %v, want lambda %v", m, k, f, val(a.Lower), val(a.Upper), lam)
		}
		if err := checkAlphaStar(val(a.AlphaStar), q, k); err != nil {
			return fmt.Errorf("bounds (%d,%d,%d): %w", m, k, f, err)
		}
	}
	return nil
}

// checkAlphaStar checks alpha*^k = q/(q-k), the optimal base of the
// cyclic exponential strategy.
func checkAlphaStar(alpha float64, q, k int) error {
	want := float64(q) / float64(q-k)
	if !relClose(math.Pow(alpha, float64(k)), want, relExact) {
		return fmt.Errorf("alpha*^k = %v, want q/(q-k) = %v", math.Pow(alpha, float64(k)), want)
	}
	return nil
}

// checkMeasured checks an exact sup ratio of the optimal strategy over
// [1, horizon): at most lambda, and below it by no more than the
// horizon allows.
func checkMeasured(v, worstX float64, m, k, f int, horizon float64) error {
	lam := lambda(m, k, f)
	if !(v <= lam*(1+relExact)) {
		return fmt.Errorf("(%d,%d,%d) h=%v: measured %v above lambda %v", m, k, f, horizon, v, lam)
	}
	if !((lam-v)/lam <= verifyGapTol(horizon)) {
		return fmt.Errorf("(%d,%d,%d) h=%v: measured %v is %.3g below lambda %v (tolerance %.3g)", m, k, f, horizon, v, (lam-v)/lam, lam, verifyGapTol(horizon))
	}
	if !(worstX >= 1 && worstX <= horizon) {
		return fmt.Errorf("(%d,%d,%d) h=%v: worst_x %v outside [1, horizon]", m, k, f, horizon, worstX)
	}
	return nil
}

func checkVerify(a *verifyAnswer, m, k, f int, horizon float64) error {
	if a.Scenario != "crash" || a.M != m || a.K != k || a.F != f || a.Horizon != horizon {
		return fmt.Errorf("verify echo %s (%d,%d,%d) h=%v, asked crash (%d,%d,%d) h=%v", a.Scenario, a.M, a.K, a.F, a.Horizon, m, k, f, horizon)
	}
	lam := lambda(m, k, f)
	if !relClose(val(a.Lower), lam, relExact) {
		return fmt.Errorf("verify (%d,%d,%d): lower %v, want lambda %v", m, k, f, val(a.Lower), lam)
	}
	if !a.Evaluated || a.WorstRay < 0 || a.WorstRay > m {
		return fmt.Errorf("verify (%d,%d,%d): evaluated %v worst_ray %d", m, k, f, a.Evaluated, a.WorstRay)
	}
	v := val(a.Value)
	if want := (v - val(a.Lower)) / val(a.Lower); !relClose(val(a.RelGap), want, 1e-9) && math.Abs(val(a.RelGap)-want) > 1e-15 {
		return fmt.Errorf("verify (%d,%d,%d): rel_gap %v, want %v", m, k, f, val(a.RelGap), want)
	}
	return checkMeasured(v, val(a.WorstX), m, k, f, horizon)
}

// sweepCells is the number of cells of a kmax grid: f < k for every
// k in 1..kmax.
func sweepCells(kmax int) int { return kmax * (kmax + 1) / 2 }

func checkSweepCell(c *sweepCell, m, k, f int, horizon float64) error {
	if c.M != m || c.K != k || c.F != f || c.Q != m*(f+1) || c.Error != "" {
		return fmt.Errorf("sweep cell (%d,%d,%d) q=%d err=%q, want (%d,%d,%d)", c.M, c.K, c.F, c.Q, c.Error, m, k, f)
	}
	regime := regimeOf(m, k, f)
	if c.Regime != regime {
		return fmt.Errorf("sweep cell (%d,%d,%d): regime %q, want %q", m, k, f, c.Regime, regime)
	}
	switch regime {
	case "unsolvable":
		if !isNull(c.Closed) || c.Evaluated {
			return fmt.Errorf("sweep cell (%d,%d,%d): unsolvable cell carries a bound", m, k, f)
		}
	case "trivial":
		if val(c.Closed) != 1 || c.Evaluated {
			return fmt.Errorf("sweep cell (%d,%d,%d): trivial closed %v, want 1", m, k, f, val(c.Closed))
		}
	default:
		if !relClose(val(c.Closed), lambda(m, k, f), relExact) || !c.Evaluated {
			return fmt.Errorf("sweep cell (%d,%d,%d): closed %v, want lambda %v", m, k, f, val(c.Closed), lambda(m, k, f))
		}
		return checkMeasured(val(c.Measured), val(c.WorstX), m, k, f, horizon)
	}
	return nil
}

// checkSweepCells checks a grid in row-major (k outer, f inner) order.
func checkSweepCells(cells []sweepCell, m, kmax int, horizon float64) error {
	if len(cells) != sweepCells(kmax) {
		return fmt.Errorf("sweep m=%d kmax=%d: %d cells, want %d", m, kmax, len(cells), sweepCells(kmax))
	}
	i := 0
	for k := 1; k <= kmax; k++ {
		for f := 0; f < k; f++ {
			if err := checkSweepCell(&cells[i], m, k, f, horizon); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// checkSweepNDJSON checks a streamed sweep: one row per line, optional
// heartbeat comments, and a final "# done rows=N" with N the grid's
// cell count.
func checkSweepNDJSON(body []byte, m, kmax int, horizon float64) error {
	var cells []sweepCell
	done := -1
	for len(body) > 0 {
		line, rest, _ := bytes.Cut(body, []byte{'\n'})
		body = rest
		switch {
		case len(line) == 0:
			continue
		case done >= 0:
			return fmt.Errorf("sweep stream: %q after the done line", line)
		case bytes.Equal(line, []byte("# heartbeat")):
		case bytes.HasPrefix(line, []byte("# done rows=")):
			n, err := strconv.Atoi(string(line[len("# done rows="):]))
			if err != nil {
				return fmt.Errorf("sweep stream: bad done line %q", line)
			}
			done = n
		case line[0] == '#':
			return fmt.Errorf("sweep stream: %q", line)
		default:
			var c sweepCell
			if err := json.Unmarshal(line, &c); err != nil {
				return fmt.Errorf("sweep stream row: %w", err)
			}
			cells = append(cells, c)
		}
	}
	if done != sweepCells(kmax) {
		return fmt.Errorf("sweep stream m=%d kmax=%d: done rows=%d, want %d", m, kmax, done, sweepCells(kmax))
	}
	return checkSweepCells(cells, m, kmax, horizon)
}

// checkBatch checks that rows come back one per item, in item order,
// each the answer its single endpoint would give.
func checkBatch(a *batchAnswer, items []Item) error {
	if a.Count != len(items) || a.Failed != 0 || len(a.Rows) != len(items) {
		return fmt.Errorf("batch: count %d failed %d rows %d, want %d items", a.Count, a.Failed, len(a.Rows), len(items))
	}
	for i, it := range items {
		row := &a.Rows[i]
		op := "bounds"
		if it.Verify {
			op = "verify"
		}
		if row.Index != i || row.Op != op || row.Status != 200 || row.Error != "" {
			return fmt.Errorf("batch row %d: index %d op %q status %d error %q, want %s", i, row.Index, row.Op, row.Status, row.Error, op)
		}
		m, k, f := int(it.M), int(it.K), int(it.F)
		var err error
		if it.Verify {
			err = decodeAnd(row.Result, func(v *verifyAnswer) error { return checkVerify(v, m, k, f, it.Horizon) })
		} else {
			err = decodeAnd(row.Result, func(b *boundsAnswer) error { return checkBounds(b, m, k, f) })
		}
		if err != nil {
			return fmt.Errorf("batch row %d: %w", i, err)
		}
	}
	return nil
}

func checkSimulate(t *simTable, p *Plan) error {
	m, k, f := int(p.M), int(p.K), int(p.F)
	model := simModel(p.Op)
	if t.Scenario != model || t.M != m || t.K != k || t.F != f || t.Horizon != p.Horizon || t.Points != int(p.Points) {
		return fmt.Errorf("simulate echo %s (%d,%d,%d) h=%v points=%d, asked %s (%d,%d,%d) h=%v points=%d",
			t.Scenario, t.M, t.K, t.F, t.Horizon, t.Points, model, m, k, f, p.Horizon, p.Points)
	}
	if len(t.Rows) != int(p.Points) {
		return fmt.Errorf("simulate %s: %d rows, want %d", model, len(t.Rows), p.Points)
	}
	if t.Rows[0].Dist != 1 || t.Rows[len(t.Rows)-1].Dist != p.Horizon {
		return fmt.Errorf("simulate %s: grid runs %v..%v, want exactly 1..%v", model, t.Rows[0].Dist, t.Rows[len(t.Rows)-1].Dist, p.Horizon)
	}
	var pf *pfaultyModel
	if p.Op == opSimPfaulty {
		if t.P != p.P {
			return fmt.Errorf("simulate pfaulty: p %v, asked %v", t.P, p.P)
		}
		pf = newPfaultyModel(p.P)
	}
	for i := range t.Rows {
		row := &t.Rows[i]
		if i > 0 && !(row.Dist > t.Rows[i-1].Dist) {
			return fmt.Errorf("simulate %s: distances not increasing at row %d", model, i)
		}
		if row.Error != "" {
			return fmt.Errorf("simulate %s row %d: %s", model, i, row.Error)
		}
		v, closed := val(row.Value), val(row.Closed)
		var err error
		switch p.Op {
		case opSimPfaulty:
			if row.Samples != int(p.Samples) || row.Seed != p.Seed || row.Clamped {
				err = fmt.Errorf("samples %d seed %d clamped %v, asked %d seed %d", row.Samples, row.Seed, row.Clamped, p.Samples, p.Seed)
			} else {
				err = pf.checkRow(row.Dist, v, closed, int(p.Samples))
			}
		case opSimCrash:
			lam := lambda(m, k, f)
			if !relClose(closed, lam, relExact) {
				err = fmt.Errorf("closed %v, want lambda %v", closed, lam)
			} else if !(v >= 1 && v <= lam*(1+relExact)) {
				err = fmt.Errorf("timeline ratio %v outside [1, lambda %v]", v, lam)
			}
		case opSimShoreline:
			sec := shorelineSec(k, f)
			if !relClose(closed, sec, relExact) || !relClose(v, sec, 1e-9) {
				err = fmt.Errorf("closed %v value %v, want sec((f+1)pi/k) = %v", closed, v, sec)
			}
		case opSimEvacuation:
			lam := lambda(2, k, f)
			if !relClose(closed, lam, relExact) {
				err = fmt.Errorf("closed %v, want the search bound lambda(2,%d,%d) = %v", closed, k, f, lam)
			} else if !(v >= 1) || math.IsInf(v, 0) {
				err = fmt.Errorf("evacuation ratio %v not a finite ratio >= 1", v)
			}
		}
		if err != nil {
			return fmt.Errorf("simulate %s (%d,%d,%d) row %d dist %v: %w", model, m, k, f, i, row.Dist, err)
		}
	}
	return nil
}

// pfaultyModel is the geometric half-line strategy with per-pass fault
// probability p (Bonato et al.): round i runs from the origin out to
// b^i and back, and a target at x is passed at
// A_i = 2 b^i/(b-1) + x and B_i = 2 b^i/(b-1) + 2 b^i - x for every
// round i >= j = ceil(log_b x); the n-th pass detects it with
// probability (1-p) p^(n-1).
type pfaultyModel struct {
	p, b float64
}

func newPfaultyModel(p float64) *pfaultyModel { return &pfaultyModel{p: p, b: pfaultyOptimalBase(p)} }

// pfaultyWorst is the worst-case expected ratio of base b, the
// x -> b^(j-1)+ limit of the series below.
func pfaultyWorst(b, p float64) float64 {
	return 2*b*(1-p)*((1+p)/(b-1)+p)/(1-p*p*b) + (1-p)/(1+p)
}

// pfaultyOptimalBase minimizes pfaultyWorst over the feasible bases
// (1, 1/p^2). Up to constants the objective is
// g(b) = b(1+pb) / ((b-1)(1-p^2 b)), whose log-derivative
// 1/b + p/(1+pb) - 1/(b-1) + p^2/(1-p^2 b) rises from -inf to +inf
// across the interval; bisection finds its zero to full precision.
func pfaultyOptimalBase(p float64) float64 {
	lo, hi := 1.0, 1/(p*p)
	for i := 0; i < 200; i++ {
		b := (lo + hi) / 2
		if 1/b+p/(1+p*b)-1/(b-1)+p*p/(1-p*p*b) < 0 {
			lo = b
		} else {
			hi = b
		}
	}
	return (lo + hi) / 2
}

// pass is the ratio of the n-th pass (1-based) over x when round j is
// the first to reach x.
func (pm *pfaultyModel) pass(x float64, j float64, n int) float64 {
	bi := math.Pow(pm.b, j+float64((n-1)/2))
	t := 2*bi/(pm.b-1) + x
	if n%2 == 0 {
		t += 2*bi - 2*x
	}
	return t / x
}

// moments sums the pass series for the first two moments of the
// per-sample ratio.
func (pm *pfaultyModel) moments(x, j float64) (mean, second float64) {
	w := 1 - pm.p
	for n := 1; w > 1e-22; n++ {
		r := pm.pass(x, j, n)
		mean += w * r
		second += w * r * r
		w *= pm.p
	}
	return mean, second
}

// firstRounds returns the j candidates for x: one, or both neighbours
// when x lies within float noise of a power of b, where the ratio
// jumps and two computations of b may land on different sides.
func (pm *pfaultyModel) firstRounds(x float64) []float64 {
	l := math.Log(x) / math.Log(pm.b)
	if r := math.Round(l); x != 1 && math.Abs(l-r) < 1e-6 {
		return []float64{r, r + 1}
	}
	return []float64{math.Ceil(l)}
}

// checkRow checks the server's closed form against the series sum,
// and the Monte-Carlo mean of n samples against one-sided bounds that
// a correct estimator breaks with probability below mcFalseAlarm. The
// per-sample ratio has a power-law upper tail, so no useful two-sided
// interval exists at that false-alarm rate: the lower side uses
// Maurer's inequality for non-negative variables,
// P(mean <= E - t) <= exp(-n t^2 / (2 E[X^2])), and the upper side
// the largest ratio any sample reaches unless some sample needs more
// passes than n p^passes <= mcFalseAlarm allows.
func (pm *pfaultyModel) checkRow(x, value, closed float64, n int) error {
	var errs []error
	for _, j := range pm.firstRounds(x) {
		mean, second := pm.moments(x, j)
		if !relClose(closed, mean, pfaultyClosedTol) {
			errs = append(errs, fmt.Errorf("closed %v, series expectation %v", closed, mean))
			continue
		}
		lo := mean - math.Sqrt(2*second*math.Log(1/mcFalseAlarm)/float64(n))
		passes := int(math.Ceil(math.Log(mcFalseAlarm/float64(n)) / math.Log(pm.p)))
		hi := pm.pass(x, j, passes)
		if !(value >= lo && value <= hi) {
			errs = append(errs, fmt.Errorf("Monte-Carlo mean %v outside [%v, %v] around expectation %v", value, lo, hi, mean))
			continue
		}
		return nil
	}
	return errors.Join(errs...)
}
