package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestLambdaReproducesTheorem1(t *testing.T) {
	for _, tc := range []struct {
		m, k, f int
		want    float64
	}{
		{2, 1, 0, 9},                 // the doubling strategy's 9 (rho = 2)
		{2, 3, 1, 5.233069471915199}, // Theorem 1's A(3,1) = 5.233069471915...
	} {
		got := lambda(tc.m, tc.k, tc.f)
		if !relClose(got, tc.want, 1e-13) {
			t.Errorf("lambda(%d,%d,%d) = %.16g, want %.16g", tc.m, tc.k, tc.f, got, tc.want)
		}
	}
	if got := fmt.Sprintf("%.12f", lambda(2, 3, 1)); !strings.HasPrefix(got, "5.233069471915") {
		t.Errorf("lambda(2,3,1) = %s, want 5.233069471915...", got)
	}
}

// verifyJSON is a /v1/verify answer for (2,3,1) at horizon 1e5 that
// passes every check.
func verifyJSON(value, lower float64) []byte {
	body, _ := json.Marshal(map[string]any{
		"scenario": "crash", "m": 2, "k": 3, "f": 1, "horizon": 1e5,
		"value": value, "lower": lower, "rel_gap": (value - lower) / lower,
		"evaluated": true, "worst_ray": 1, "worst_x": 812.5,
	})
	return body
}

func TestCheckerFlagsCorruptedAnswers(t *testing.T) {
	w := &Workload{}
	p := &Plan{Op: opVerify, M: 2, K: 3, F: 1, Horizon: 1e5}
	lam := lambda(2, 3, 1)
	good := lam * (1 - 2e-6)
	if err := w.checkBody(p, verifyJSON(good, lam)); err != nil {
		t.Fatalf("a correct answer was flagged: %v", err)
	}
	for name, body := range map[string][]byte{
		"lower off by 1e-9":      verifyJSON(good, lam*(1+1e-9)),
		"value above lambda":     verifyJSON(lam*(1+1e-9), lam),
		"value far below lambda": verifyJSON(lam*(1-1e-3), lam),
		"wrong echo":             []byte(strings.Replace(string(verifyJSON(good, lam)), `"k":3`, `"k":4`, 1)),
		"not JSON":               []byte("{"),
	} {
		if err := w.checkBody(p, body); err == nil {
			t.Errorf("%s: not flagged", name)
		}
	}

	bounds := func(alpha float64) []byte {
		b, _ := json.Marshal(map[string]any{
			"scenario": "crash", "m": 2, "k": 3, "f": 1, "q": 4, "rho": 4.0 / 3, "regime": "search",
			"lower": lam, "upper": lam, "has_upper": true, "alpha_star": alpha,
		})
		return b
	}
	bp := &Plan{Op: opBounds, M: 2, K: 3, F: 1}
	if err := w.checkBody(bp, bounds(math.Cbrt(4))); err != nil {
		t.Fatalf("a correct bounds answer was flagged: %v", err)
	}
	if err := w.checkBody(bp, bounds(math.Cbrt(4)*(1+1e-10))); err == nil {
		t.Error("a corrupted alpha* was not flagged")
	}
}

func TestSweepStreamNeedsTheDoneLine(t *testing.T) {
	lam := lambda(2, 1, 0)
	row := func(k, f int, regime string, closed any, evaluated bool, measured any) string {
		b, _ := json.Marshal(map[string]any{"m": 2, "k": k, "f": f, "q": 2 * (f + 1), "regime": regime,
			"closed": closed, "evaluated": evaluated, "measured": measured, "worst_x": 2.0})
		return string(b) + "\n"
	}
	// kmax = 1: the single cell (2,1,0), in the search regime.
	body := row(1, 0, "search", lam, true, lam*(1-1e-6))
	if err := checkSweepNDJSON([]byte(body+"# heartbeat\n# done rows=1\n"), 2, 1, 1e5); err != nil {
		t.Fatalf("a correct stream was flagged: %v", err)
	}
	for name, stream := range map[string]string{
		"no done line":     body,
		"wrong row count":  body + "# done rows=2\n",
		"truncated stream": body + "# truncated after 1/2 rows: timeout\n",
	} {
		if err := checkSweepNDJSON([]byte(stream), 2, 1, 1e5); err == nil {
			t.Errorf("%s: not flagged", name)
		}
	}
}

func TestPfaultySeriesMatchesTheClosedForm(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.4} {
		pm := newPfaultyModel(p)
		// At x -> b^(j-1)+ the series reaches the worst case W(b, p).
		x := math.Pow(pm.b, 2) * (1 + 1e-12)
		mean, _ := pm.moments(x, 3)
		if w := pfaultyWorst(pm.b, p); !relClose(mean, w, 1e-9) {
			t.Errorf("p=%v: series %v, closed form %v", p, mean, w)
		}
	}
	// p = 1/4 has the exact optimum b* = 8/3.
	if b := pfaultyOptimalBase(0.25); !relClose(b, 8.0/3, 1e-14) {
		t.Errorf("optimal base at p=1/4 = %v, want 8/3", b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestLiveAnswersPassChecks replays the first plans of every workload
// through boundsd's handler and checks the answers: on a correct
// server no check fires.
func TestLiveAnswersPassChecks(t *testing.T) {
	pools, err := loadPools()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := generate(pools, name, 7, 150)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newReplay(pools, w, w.Plans)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range w.Plans {
			r.ip.srv.ServeHTTP(r.recs[i], r.reqs[i])
		}
		if failed, first := r.check(w, w.Plans); failed > 0 {
			t.Errorf("%s: %d of %d answers failed: %v", name, failed, len(w.Plans), first)
		}
	}
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	pools, err := loadPools()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		a, _ := generate(pools, name, 3, 500)
		b, _ := generate(pools, name, 3, 500)
		c, _ := generate(pools, name, 4, 500)
		hashes := []string{"h0", "h1", "h2", "h3"}
		wire := func(w *Workload, i int) string {
			r := w.render(&w.Plans[i], hashes)
			return r.Method + " " + r.Target + " " + r.Accept + " " + string(r.Body)
		}
		for i := range a.Plans {
			if wire(a, i) != wire(b, i) {
				t.Fatalf("%s: plan %d differs between two generations from one seed", name, i)
			}
		}
		if fmt.Sprint(a.Plans[:20]) == fmt.Sprint(c.Plans[:20]) {
			t.Errorf("%s: seeds 3 and 4 gave the same plans", name)
		}
	}
}
