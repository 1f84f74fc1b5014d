package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs the named workload (every workload when none is
// named) n times, each in a child process with seeds seed..seed+n-1,
// and prints the median, quartiles and range of every end-to-end
// metric. The spread column is (q3-q1)/median with the quartiles of
// Python's statistics.quantiles(values, n=4).
func runSteady(workload string, seed int64, seconds, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		failed := 0
		for i := 0; i < n; i++ {
			args := []string{"--workload", name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0"}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed+int64(i), err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, seed+int64(i), err)
			}
			failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("%s: %d runs of %ds, seeds %d..%d, %d failed requests\n", name, n, seconds, seed, seed+int64(n)-1, failed)
		fmt.Printf("  %-16s %-5s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "spread")
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := values[k]
			q1, med, q3 := quartiles(v)
			lo, hi := minMax(v)
			fmt.Printf("  %-16s %-5s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%%\n", k, units[k], med, q1, q3, lo, hi, 100*(q3-q1)/med)
		}
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
