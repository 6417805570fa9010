// Command difftest runs the differential testing harness
// (internal/difftest) offline: every benchmark app is compiled at
// several memory budgets and checked under the six oracles — layout
// invariance, sim vs golden structures, engine equivalence, migration
// soundness, translation validation, and multi-tenant per-tenant
// equivalence. A clean run exits 0; any
// oracle violation prints a (shrunken) repro and exits 1.
//
//	go run ./cmd/difftest -seed 1 -n 10000
//	go run ./cmd/difftest -apps NetCache,Precision -budgets 524288,1048576
//	go run ./cmd/difftest -oracles golden,engine -n 100000 -seed 7
//	go run ./cmd/difftest -failures out.txt   # CI artifact
//
// -failures writes every failure report (including shrunken repros) to
// a file as well as stdout, so CI jobs can upload counterexamples as
// artifacts. See docs/DIFFTEST.md for the oracle definitions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"p4all/internal/difftest"
)

func main() {
	seed := flag.Int64("seed", 1, "seed deriving packet streams and auxiliary state")
	n := flag.Int("n", 10000, "packets per generated stream")
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: all four)")
	budgetsFlag := flag.String("budgets", "", "comma-separated per-stage memory budgets in bits (default: 524288,1048576,2097152)")
	oraclesFlag := flag.String("oracles", "", "comma-separated oracle subset: layout,golden,engine,certify,migrate,tenant (default: all)")
	shrink := flag.Bool("shrink", true, "minimize failing streams before reporting")
	failuresPath := flag.String("failures", "", "also write failure reports (with minimized repros) to this file")
	quiet := flag.Bool("q", false, "suppress progress lines")
	flag.Parse()

	cfg := difftest.Config{
		Seed:    *seed,
		N:       *n,
		Apps:    splitList(*appsFlag),
		Oracles: splitList(*oraclesFlag),
		Shrink:  *shrink,
	}
	var log io.Writer = os.Stderr
	if *quiet {
		log = nil
	}
	cfg.Log = log
	budgets, err := parseBudgets(*budgetsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Budgets = budgets

	rep, err := difftest.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAIL %s\n", f)
	}
	fmt.Printf("difftest: %d oracle checks, %d packets replayed, %d failures (seed %d)\n",
		rep.Checks, rep.Packets, len(rep.Failures), *seed)
	if *failuresPath != "" && !rep.Ok() {
		if err := writeFailures(*failuresPath, rep, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if !rep.Ok() {
		os.Exit(1)
	}
}

// writeFailures renders the failure reports (minimized repros
// included) to path for CI artifact upload.
func writeFailures(path string, rep *difftest.Report, seed int64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "difftest failures: seed=%d checks=%d\n\n", seed, rep.Checks)
	for _, f := range rep.Failures {
		fmt.Fprintf(&b, "FAIL %s\n\n", f)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseBudgets(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("difftest: bad budget %q (want positive bits)", p)
		}
		out = append(out, v)
	}
	return out, nil
}
