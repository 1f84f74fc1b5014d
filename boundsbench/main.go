// Command boundsbench is the benchmark of boundsd, the HTTP bounds
// service: it serves the crash-fault search bounds of Kupavskii and
// Welzl and the simulators of the neighbouring models, and this
// program measures it end to end and layer by layer.
//
// One run sets boundsd's handler up behind net/http on loopback in
// this process, drives it with a closed loop of one client per core
// for the given seconds, checks every answer against values computed
// here from the papers' formulas, and prints one JSON line:
//
//	boundsbench --workload cold-verify --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead replays the same inputs in process, times
// the calls into each layer, writes the spans to
// .bench_build/trace/<workload>.jsonl and prints the per-layer
// metrics. With --steady N it runs every workload N times, each with
// its own seed, in child processes, and prints the median, quartiles
// and range of every end-to-end metric. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// Metric is one named measurement of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// plansPerSecond sizes a run's plan list. Cold-verify and
// simulate-heavy never repeat a plan, so the list holds more plans
// than the fastest closed loop on a few cores completes; warm-lookup
// cycles through a fixed list.
func plansPerSecond(workload string) int {
	switch workload {
	case "cold-verify":
		return 40000
	case "simulate-heavy":
		return 20000
	default:
		return 0
	}
}

const warmPlans = 1 << 15

func main() {
	var (
		workload = flag.String("workload", "", "warm-lookup, cold-verify or simulate-heavy")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1: traced in-process replay with per-layer metrics")
		steady   = flag.Int("steady", 0, "run each workload this many times with distinct seeds and print the spread of every end-to-end metric")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *steady); err != nil {
		fmt.Fprintln(os.Stderr, "boundsbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace, steady int) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	pools, err := loadPools()
	if err != nil {
		return err
	}
	if steady > 0 {
		return runSteady(workload, seed, seconds, steady)
	}
	n := plansPerSecond(workload) * (seconds + 1)
	if n == 0 {
		n = warmPlans
	}
	w, err := generate(pools, workload, seed, n)
	if err != nil {
		return err
	}
	var res Result
	if trace == 1 {
		res, err = runTrace(pools, w, seed, seconds)
	} else {
		res, err = runEndToEnd(pools, w, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d requests failed their checks", res.Failed, res.Attempted)
	}
	return nil
}

// setupRuns is how many set-ups a run times; setup_s is their median.
const setupRuns = 15

// runEndToEnd is the untraced run: set up, one timed closed-loop
// window, and the six end-to-end metrics.
func runEndToEnd(pools Pools, w *Workload, seconds int) (Result, error) {
	conns := clients()
	ls, setupS, err := setUps(pools, w, conns, setupRuns)
	if err != nil {
		return Result{}, err
	}
	win := runWindow(ls, w, time.Duration(seconds)*time.Second)
	if err := ls.close(); err != nil {
		return Result{}, err
	}
	if win.rssErr != nil {
		return Result{}, win.rssErr
	}
	report(w.Name, win)
	if win.attempted == win.failed {
		return Result{}, fmt.Errorf("no request completed")
	}
	// Throughput, latency and CPU are medians over the window's
	// one-second slices.
	return Result{
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics: map[string]Metric{
			"setup_s":        {setupS, "s"},
			"throughput_rps": {win.sliceMedian(func(s sliceResult) float64 { return float64(s.completed) / s.seconds }), "1/s"},
			"p50_ms":         {win.sliceMedian(func(s sliceResult) float64 { return quantileSorted(s.lat, 0.50) * 1e3 }), "ms"},
			"p99_ms":         {win.sliceMedian(func(s sliceResult) float64 { return quantileSorted(s.lat, 0.99) * 1e3 }), "ms"},
			"cpu_ms_per_req": {win.sliceMedian(func(s sliceResult) float64 { return float64(s.cpu) / 1e6 / float64(s.completed) }), "ms"},
			"peak_rss_mib":   {win.peakRSS, "MiB"},
		},
	}, nil
}

// report writes what a window did to standard error.
func report(name string, win windowResult) {
	fmt.Fprintf(os.Stderr, "%s: %d requests (%d failed) in %d one-second slices on %d clients\n",
		name, win.attempted, win.failed, len(win.slices), clients())
	for _, e := range win.firstErrs {
		fmt.Fprintln(os.Stderr, "  failed:", e)
	}
	if beyond := win.samples - int(math.Ceil(0.99*float64(win.samples))); beyond < 100 {
		fmt.Fprintf(os.Stderr, "  warning: only %d samples beyond p99\n", beyond)
	}
	if win.exhausted {
		fmt.Fprintln(os.Stderr, "  warning: the plans or the sample storage ran out before the window closed")
	}
}
