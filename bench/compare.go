package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// readRecords groups a results.jsonl file's end-to-end runs as
// workload → metric → one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives; 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// separated reports whether every value of one side lies strictly on
// one side of every value of the other.
func separated(a, b []float64) bool {
	return slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
}

// runCompare prints, per workload and end-to-end metric, both files'
// medians, how much worse the second is, and a verdict against the
// metric's bound: ok, regressed, or unresolved when the run-to-run
// spread is wider than the bound and the two sides overlap. It returns
// 1 if anything regressed.
func runCompare(stdout, stderr io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRecords(pathB); err == nil {
			return compare(stdout, spec, a, b)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compare(w io.Writer, spec *benchSpec, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		if a[wl.Name] == nil && b[wl.Name] == nil {
			continue // run in neither file
		}
		for _, m := range spec.EndToEnd {
			xa, xb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %7s %7s  missing\n", wl.Name, m.Name, "-", "-", "-", "-", "-")
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(xa), quartileSpread(xb))
			verdict := "ok"
			switch {
			case spread > m.Bound && !separated(xa, xb):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+8.2f%% %6.1f%% %6.2f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
	}
	return code
}
