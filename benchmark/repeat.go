package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spec is the part of BENCHMARK.json the stability check reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat is the acceptance check a change to the benchmark, and later a
// before/after pair, is held to: it runs every workload in `sets` sets of
// fresh processes, one run per seed, and prints per workload and end-to-end
// metric each set's spread over its seeds (the distance between the
// quartiles as a share of the median) and how much worse each later set's
// median is than the first's, both against the metric's bound. It returns
// the exit code: 1 when a bound is breached or a run fails.
func runRepeat(sets, seeds int, o options) int {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat reads the bounds from the working directory:", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	// values[workload][metric][set] holds one value per seed.
	values := map[string]map[string][][]float64{}
	code := 0
	for set := 0; set < sets; set++ {
		for _, w := range names {
			for i := 0; i < seeds; i++ {
				seed := o.seed + uint64(set*seeds+i)
				cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.Itoa(sp.RunSeconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: set %d, %s, seed %d: %v\n", set+1, w, seed, err)
					code = 1
					continue
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var r result
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: set %d, %s, seed %d: %v\n", set+1, w, seed, err)
					code = 1
					continue
				}
				if values[w] == nil {
					values[w] = map[string][][]float64{}
				}
				for _, m := range sp.EndToEnd {
					per := values[w][m.Name]
					if per == nil {
						per = make([][]float64, sets)
					}
					per[set] = append(per[set], r.Metrics[m.Name].Value)
					values[w][m.Name] = per
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, w, seed)
			}
		}
	}

	fmt.Printf("%-14s %-18s %6s", "workload", "metric", "bound")
	for set := 1; set <= sets; set++ {
		fmt.Printf(" %14s %7s", "median"+strconv.Itoa(set), "spread")
	}
	fmt.Printf(" %8s\n", "worse")
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			per := values[w][m.Name]
			if len(per) == 0 || len(per[0]) == 0 {
				continue
			}
			fmt.Printf("%-14s %-18s %6.3f", w, m.Name, m.Bound)
			base := median(per[0])
			worst := 0.0
			breach := false
			for _, v := range per {
				if len(v) == 0 {
					continue
				}
				med, spread := median(v), 0.0
				if len(v) >= 2 {
					q1, q3 := quartiles(v)
					spread = (q3 - q1) / med
				}
				worse := (med - base) / base
				if m.Better == "higher" {
					worse = -worse
				}
				worst = max(worst, worse)
				// The set-up time's spread is reported, not held to the bound.
				if worse > m.Bound || (spread > m.Bound && m.Name != "setup_s") {
					breach = true
				}
				fmt.Printf(" %14.6g %6.2f%%", med, 100*spread)
			}
			mark := ""
			if breach {
				mark = "  BREACH"
				code = 1
			}
			fmt.Printf(" %7.2f%%%s\n", 100*worst, mark)
		}
	}
	return code
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the acceptance check uses. v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
