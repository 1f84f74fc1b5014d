package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// newServer builds boundsd's handler the way cmd/boundsd does with its
// default flags.
func newServer() *server.Server {
	eng := engine.NewWithCacheShards(0, server.DefaultCacheCapacity, 0)
	return server.New(server.Config{Engine: eng})
}

// liveServer is server.New behind net/http on a loopback port, with
// one client connection per closed-loop client.
type liveServer struct {
	hs      *http.Server
	served  chan error
	clients []*client
	hashes  []string // registered script hashes, by variant
}

func startLive() (*liveServer, net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		hs:     &http.Server{Handler: newServer(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, ln, nil
}

// close drops the client connections, shuts the server down and waits
// for its serve loop to return.
func (ls *liveServer) close() error {
	var errs []error
	for _, c := range ls.clients {
		errs = append(errs, c.close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs = append(errs, ls.hs.Shutdown(ctx))
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) {
		errs = append(errs, serr)
	}
	return errors.Join(errs...)
}

var hashRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// exchanger sends one request and returns the status and the whole
// answer: the loopback client, or a handler called in process.
type exchanger interface {
	exchange(Request) (int, []byte, error)
}

// prepare does the set-up every server gets before it is measured, on
// either transport: it registers the workload's scripts, returning
// their hashes, and fills warm-lookup's working set through the
// normal request path, checking every answer.
func prepare(pools Pools, w *Workload, ex exchanger) ([]string, error) {
	var hashes []string
	for _, script := range w.Scripts {
		body, err := json.Marshal(map[string]string{"script": script})
		if err != nil {
			return nil, err
		}
		code, answer, err := ex.exchange(Request{Method: "POST", Target: "/v1/strategies", Body: body})
		if err != nil {
			return nil, fmt.Errorf("register script: %w", err)
		}
		var ans struct {
			Hash string `json:"hash"`
		}
		if code != http.StatusOK || json.Unmarshal(answer, &ans) != nil || !hashRE.MatchString(ans.Hash) {
			return nil, fmt.Errorf("register script: status %d: %s", code, bytes.TrimSpace(answer))
		}
		hashes = append(hashes, ans.Hash)
	}
	if w.Name == "warm-lookup" {
		for _, p := range warmFill(pools.Warm) {
			code, answer, err := ex.exchange(w.render(&p, hashes))
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(answer))
			}
			if err == nil {
				err = w.checkBody(&p, answer)
			}
			if err != nil {
				return nil, fmt.Errorf("set-up %s: %w", p.Op, err)
			}
		}
	}
	return hashes, nil
}

// setUp constructs a server and brings it to where the timed window
// can start: every client connection open, cold-verify's scripts
// registered, warm-lookup's working set in the cache.
func setUp(pools Pools, w *Workload, conns int) (*liveServer, error) {
	ls, ln, err := startLive()
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*liveServer, error) {
		return nil, errors.Join(err, ls.close())
	}
	for i := 0; i < conns; i++ {
		c, err := dial(ln.Addr().String())
		if err != nil {
			return fail(err)
		}
		ls.clients = append(ls.clients, c)
		code, err := c.do(Request{Method: "GET", Target: "/healthz"})
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("healthz status %d", code)
		}
		if err != nil {
			return fail(err)
		}
	}
	if ls.hashes, err = prepare(pools, w, ls.clients[0]); err != nil {
		return fail(err)
	}
	return ls, nil
}

// setUps runs n set-ups, keeps the last server and returns the median
// set-up time.
func setUps(pools Pools, w *Workload, conns, n int) (*liveServer, float64, error) {
	times := make([]float64, 0, n)
	var ls *liveServer
	for i := 0; i < n; i++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if ls, err = setUp(pools, w, conns); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ls, median(times), nil
}

// windowResult is what one closed-loop window measured.
type windowResult struct {
	attempted, failed int
	samples           int // latencies recorded, in-flight ones at the close included
	firstErrs         []string
	exhausted         bool
	slices            []sliceResult
	peakRSS           float64 // MiB, at the end of the window
	rssErr            error
}

// maxClientRate bounds one closed-loop client's requests per second,
// for sizing its sample storage: a loopback round trip takes tens of
// microseconds.
const maxClientRate = 50000

// sliceResult is one second of the window: the requests that finished
// in it and the process CPU it used.
type sliceResult struct {
	seconds   float64
	completed int
	cpu       time.Duration
	lat       []float64 // seconds, sorted
}

// sample is one request as a client saw it.
type sample struct {
	end int64   // ns after the window opened
	lat float64 // seconds
}

// clients is the closed loop's connection count: one per core, kept
// under boundsd's default heavy-slot cap so no simulate request is
// shed.
func clients() int {
	return min(runtime.NumCPU(), server.DefaultMaxInflight/4)
}

var hashSeed = maphash.MakeSeed()

// runWindow drives the closed loop: every client sends its next plan
// as soon as its previous answer arrived and was checked, until the
// window closes. Plans are taken in order from one shared cursor. The
// window is cut into one-second slices, each with its own completions,
// latencies and process CPU, so a run can report medians over slices
// that a burst of outside load in one second does not move.
func runWindow(ls *liveServer, w *Workload, window time.Duration) windowResult {
	conns := len(ls.clients)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		res      windowResult
		exhaust  atomic.Bool
		perReq   = make([][]sample, conns)
		full     atomic.Bool
		perFail  = make([]int, conns)
		perTried = make([]int, conns)
	)
	for c := range perReq {
		perReq[c] = offHeap[sample](int(window.Seconds()+1) * maxClientRate)[:0]
	}
	nSlices := max(1, int(window/time.Second))
	sliceLen := window / time.Duration(nSlices)
	start := time.Now()
	deadline := start.Add(window)
	// Slice s runs from marks[s] to marks[s+1]: the marker wakes once a
	// second, reads the process CPU and the time, and is waited for
	// before the results are cut.
	type mark struct {
		at  time.Duration // since start
		cpu time.Duration
	}
	marks := make([]mark, nSlices+1)
	marks[0] = mark{0, processCPU()}
	marked := make(chan struct{})
	go func() {
		defer close(marked)
		for s := 1; s <= nSlices; s++ {
			time.Sleep(time.Until(start.Add(time.Duration(s) * sliceLen)))
			marks[s] = mark{time.Since(start), processCPU()}
		}
	}()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := ls.clients[c]
			// Warm-lookup answers are deterministic, so an answer whose
			// hash equals that of one this client has already checked
			// for the same request is checked.
			var verified map[uint64]uint64
			if w.Cycle {
				verified = make(map[uint64]uint64)
			}
			reqs := perReq[c]
			for time.Now().Before(deadline) {
				if len(reqs) == cap(reqs) {
					full.Store(true)
					break
				}
				i := int(next.Add(1) - 1)
				if i >= len(w.Plans) {
					if !w.Cycle {
						exhaust.Store(true)
						break
					}
					i %= len(w.Plans)
				}
				p := &w.Plans[i]
				req := w.render(p, ls.hashes)
				t0 := time.Now()
				code, err := cl.do(req)
				t1 := time.Now()
				reqs = append(reqs, sample{end: int64(t1.Sub(start)), lat: t1.Sub(t0).Seconds()})
				perTried[c]++
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(cl.body))
				}
				if err == nil {
					var key, sum uint64
					if verified != nil {
						key = maphash.String(hashSeed, req.Target) ^ maphash.Bytes(hashSeed, req.Body)
						sum = maphash.Bytes(hashSeed, cl.body)
						if prev, ok := verified[key]; ok && prev == sum {
							continue
						}
					}
					if err = w.checkBody(p, cl.body); err == nil && verified != nil {
						verified[key] = sum
					}
				}
				if err != nil {
					perFail[c]++
					mu.Lock()
					if len(res.firstErrs) < 5 {
						res.firstErrs = append(res.firstErrs, fmt.Sprintf("%s %s: %v", req.Method, req.Target, err))
					}
					mu.Unlock()
				}
			}
			perReq[c] = reqs
		}(c)
	}
	wg.Wait()
	<-marked
	// The resident-set peak is read before the results are cut, which
	// allocates.
	res.peakRSS, res.rssErr = peakRSSMiB()
	res.exhausted = exhaust.Load() || full.Load()
	res.slices = make([]sliceResult, nSlices)
	for s := range res.slices {
		res.slices[s] = sliceResult{seconds: (marks[s+1].at - marks[s].at).Seconds(), cpu: marks[s+1].cpu - marks[s].cpu}
	}
	for c := 0; c < conns; c++ {
		res.attempted += perTried[c]
		res.failed += perFail[c]
		res.samples += len(perReq[c])
		for _, r := range perReq[c] {
			// A request still in flight when the window closed belongs
			// to no slice.
			s := sort.Search(nSlices+1, func(i int) bool { return int64(marks[i].at) > r.end }) - 1
			if s < nSlices {
				res.slices[s].completed++
				res.slices[s].lat = append(res.slices[s].lat, r.lat)
			}
		}
	}
	for s := range res.slices {
		sort.Float64s(res.slices[s].lat)
	}
	return res
}

// sliceMedian is the median over slices of one per-slice figure.
func (res windowResult) sliceMedian(of func(sliceResult) float64) float64 {
	v := make([]float64, 0, len(res.slices))
	for _, s := range res.slices {
		if s.completed > 0 {
			v = append(v, of(s))
		}
	}
	return median(v)
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM) less the
// offHeap storage of plans and latency samples, whose size is the
// benchmark's choice (it grows with the run length), not the server's.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return (kb*1024 - float64(offHeapBytes)) / (1 << 20), nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted is the q-quantile of sorted samples (linear
// interpolation between order statistics).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
