package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spread is the distance between the first and the third quartile of a set
// of values as a share of their median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

func loadSet(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := map[string]map[string][]float64{}
	for _, rep := range env.Reports {
		if rep.Trace {
			continue
		}
		m := set[rep.Workload]
		if m == nil {
			m = map[string][]float64{}
			set[rep.Workload] = m
		}
		for name, v := range rep.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return set, nil
}

// compareFiles prints, for every workload and end-to-end metric, the medians
// of two sets of runs, how much worse the second is than the first, and the
// metric's bound. A pairing whose own run-to-run spread exceeds the bound in
// either set is unresolved, not unchanged. It returns the exit code: 1 when
// any pairing is worse by more than its bound or any run had a failed
// statement.
func compareFiles(out io.Writer, pathA, pathB string) int {
	var sets [2]map[string]map[string][]float64
	for i, path := range []string{pathA, pathB} {
		set, err := loadSet(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sets[i] = set
	}
	return compareSets(out, sets[0], sets[1])
}

func compareSets(out io.Writer, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(out, "%-14s %-20s %12s %12s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "a", "b", "worse", "bound", "spread_a", "spread_b", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.name][d.name], b[wl.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-14s %-20s missing in one set\n", wl.name, d.name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "BREACH"
				code = 1
			case sa > d.bound || sb > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-14s %-20s %12.5g %12.5g %+8.2f%% %6.0f%% %7.2f%% %7.2f%%  %s\n",
				wl.name, d.name, ma, mb, 100*worse, 100*d.bound, 100*sa, 100*sb, verdict)
		}
		for _, set := range []map[string]map[string][]float64{a, b} {
			for _, share := range set[wl.name]["error_share"] {
				if share > 0 {
					fmt.Fprintf(out, "%-14s %-20s %12.5g  BREACH (must be 0)\n", wl.name, "error_share", share)
					code = 1
				}
			}
		}
	}
	return code
}
