# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# commands so local `make check` reproduces a green build.

SHELL := /bin/bash -o pipefail

GO ?= go

.PHONY: build test race lint check bench-compare bench-profile \
	lp-split-diff bench-smoke bench-e2e difftest fuzz-smoke serve-smoke \
	certify multitenant multitenant-certify

# Per-target budget for the CI fuzz smoke (see docs/DIFFTEST.md). Four
# targets at 22s each keep the job's total fuzz budget where it was
# when three targets ran at 30s.
FUZZTIME ?= 22s
FUZZPKG  := ./internal/difftest/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

lint:
	golangci-lint run

check: build test race

# bench-compare is the one answer to "did this change make it slower?":
# the repository's benchmark (BENCHMARK.json) run on BASE and on the
# working tree, on this machine, in alternating pairs, then judged by
# bench/run.sh -compare — whose exit status is this recipe's (non-zero
# on a `regressed` row; `unresolved` rows pass and are printed, see
# docs/CI.md). BASE is any git ref: `make bench-compare BASE=origin/main`.
# Three pairs is what one CI job affords (about 80 s a run); it is a
# constant so that every verdict was produced the same way.
bench-compare:
	test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<git ref>"; exit 2; }
	rm -rf runs/compare .bench_build/base
	git worktree prune
	git worktree add --detach .bench_build/base $(BASE)
	for pair in 1 2 3; do \
		(cd .bench_build/base && bash bench/run.sh -out $(CURDIR)/runs/compare/base) || exit 1; \
		bash bench/run.sh -out runs/compare/head || exit 1; \
	done
	git worktree remove --force .bench_build/base
	bash bench/run.sh -compare runs/compare/base/results.jsonl runs/compare/head/results.jsonl | tee runs/compare/verdict.txt

# bench-profile captures a pprof CPU profile of the multi-tenant warm
# re-solves (the models where node throughput dominates) and one of cold
# solves of NetCache at 1.0 Mb (root LP, dive, neighbourhood search: the
# paths a warm re-solve never reaches), and prints where the LP
# iterations of the tenant-drift cycle, of the four compile-solve
# programs and of two Figure 12 points go — root, dive, neighbourhood,
# tree, with the warm restarts — into ilp-lp-split.txt.
# CI uploads all of them plus the test binaries as an artifact so a
# bench-compare failure can be diagnosed offline:
#   go tool pprof ilp-bench.test ilp-cpu.prof
#   go tool pprof ilp-cold-bench.test ilp-cold-cpu.prof
# (see docs/SOLVER_PERF.md).
bench-profile:
	$(GO) test -run=NONE -bench=MultiTenantResolve -benchtime=1x -benchmem \
		-cpuprofile=ilp-cpu.prof -o ilp-bench.test ./internal/multitenant/
	$(GO) test -run=NONE -bench=ILPSolveColdNetCache -benchtime=20x \
		-cpuprofile=ilp-cold-cpu.prof -o ilp-cold-bench.test ./internal/ilp/
	$(GO) test -count=1 -run TestWarmDiveSplit -v ./internal/ilp | tee ilp-lp-split.txt

# lp-split-diff shows how the LP iteration split moved against BASE:
# TestWarmDiveSplit (nodes and root, dive and tree iterations of each
# tenant-drift re-solve and of the four compile-solve programs) runs in a worktree of BASE under
# .bench_build/split and in the working tree, loses its file:line:
# prefixes, and the two are diffed. It is for reading, not a gate: it
# exits 0 whatever the diff, and prints a note instead of failing when
# a side cannot run. CI appends it to the bench job's summary.
#   make lp-split-diff BASE=origin/main
SPLIT_LINES := sed -n 's/^ *[A-Za-z0-9_]*\.go:[0-9]*: //p'
lp-split-diff:
	test -n "$(BASE)" || { echo "usage: make lp-split-diff BASE=<git ref>"; exit 2; }
	rm -rf .bench_build/split
	git worktree prune
	mkdir -p .bench_build
	if git worktree add --detach .bench_build/split $(BASE) >/dev/null 2>&1; then \
		(cd .bench_build/split && $(GO) test -count=1 -run TestWarmDiveSplit -v ./internal/ilp) \
			| $(SPLIT_LINES) > .bench_build/lp-split-base.txt || echo "(the base's test failed)"; \
		git worktree remove --force .bench_build/split; \
	else \
		echo "(no worktree of $(BASE))"; : > .bench_build/lp-split-base.txt; \
	fi
	$(GO) test -count=1 -run TestWarmDiveSplit -v ./internal/ilp \
		| $(SPLIT_LINES) > .bench_build/lp-split-head.txt || echo "(the head's test failed)"
	diff -u --label "$(BASE)" --label HEAD .bench_build/lp-split-base.txt .bench_build/lp-split-head.txt || true

# bench/ is a module of its own, so `go build ./... && go test ./...`
# at the root never compiles it: a rename in what it reads from the
# compiler (ilpgen.Stats' SimplexIter, DualIters, PrimalFallbacks,
# Refactors, Presolve.RowsDropped, ...) would break the benchmark
# without failing a test. bench-smoke vets and runs its own tests
# (about 30 s); CI runs it beside the root module's.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-e2e runs the repository's benchmark (BENCHMARK.json: six
# workloads, end to end) and appends the results under runs/<commit>;
# compare two such directories with
#   bash bench/run.sh -compare runs/a/results.jsonl runs/b/results.jsonl
bench-e2e:
	bash bench/run.sh -out runs/$$(git rev-parse --short HEAD)

# difftest runs the full differential-testing matrix on the default
# engine, the bytecode VM: seven oracles x four apps x three budgets,
# plus the engine oracle over the eight other programs the repo ships
# (see docs/DIFFTEST.md). Failure reports with minimized repro streams
# land in difftest-failures/ for CI artifact upload.
DIFFTEST_N ?= 10000
difftest:
	mkdir -p difftest-failures
	$(GO) run ./cmd/difftest -seed 1 -n $(DIFFTEST_N) \
		-failures difftest-failures/report.txt

# certify compiles every benchmark app with the translation validator
# enabled, writing one equivalence certificate per app to $(CERTDIR)
# (CI uploads them as artifacts), then runs the examples — which also
# compile with Certify — so a validator regression fails the build
# before any generated P4 is trusted (see
# docs/TRANSLATION_VALIDATION.md). The solver runs on one worker
# (-threads 1), so every certificate is a function of the commit alone.
# Last come the two runtime paths that certify what they use: the
# elastic drift loop (its initial compile must prove, and every
# re-solve it adopts does; p4allbench -fig drift's table, once sed
# strips the figure's banner line and the blank line closing it, must
# equal drift.golden, which pins the CLI's plumbing of the controller)
# and netcacheserve, which exits 1 rather than serve an unproved
# layout.
CERTDIR ?= certs
CERTAPPS := netcache sketchlearn precision conquest flowradar
certify:
	mkdir -p $(CERTDIR)
	for app in $(CERTAPPS); do \
		$(GO) run ./cmd/p4allc -app $$app -threads 1 -certify \
			-cert $(CERTDIR)/$$app.json -o /dev/null || exit 1; \
	done
	for ex in quickstart portability netcache sketchlearn; do \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done
	$(GO) run ./cmd/p4allbench -fig drift | sed '1d;$$d' | cmp - internal/eval/testdata/drift.golden
	$(GO) run ./cmd/netcacheserve -addr 127.0.0.1:0 -duration 200ms

# multitenant is the PR-acceptance scenario for the joint compiler: a
# three-tenant mix (NetCache + SketchLearn + FlowRadar) compiled into
# one pipeline with fairness weights and utility floors, certified by
# the translation validator per tenant, plus the multi-tenant package
# tests and the per-tenant differential-testing oracle (see
# docs/MULTITENANT.md). Solver limits stay at the compiler's defaults:
# the 10-stage evaluation target under floors needs the full budget to
# find its first incumbent.
MTDIR ?= mtcerts
multitenant: multitenant-certify
	$(GO) test ./internal/multitenant/
	$(GO) test ./internal/difftest/ -run TestTenantOracle

# multitenant-certify is the joint compile alone. It runs on one worker
# (-threads 1), so its per-tenant certificates are a function of the
# commit; CI re-runs it into mtcerts2/ and cmp's them.
multitenant-certify:
	mkdir -p $(MTDIR)
	$(GO) run ./cmd/p4allc -app netcache,sketchlearn,flowradar \
		-mem 524288 -weights 1,1,2 -minutil 1024 -threads 1 \
		-certify -cert $(MTDIR)/joint.json -o /dev/null

# fuzz-smoke gives each coverage-guided target a short budget on top of
# the checked-in corpora. Crashers land in
# internal/difftest/testdata/fuzz/<Target>/ — commit them as
# regression inputs after fixing the bug.
fuzz-smoke:
	$(GO) test $(FUZZPKG) -run='^$$' -fuzz=FuzzSimVsGolden -fuzztime=$(FUZZTIME)
	$(GO) test $(FUZZPKG) -run='^$$' -fuzz=FuzzVMVsInterp -fuzztime=$(FUZZTIME)
	$(GO) test $(FUZZPKG) -run='^$$' -fuzz=FuzzSnapshotRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test $(FUZZPKG) -run='^$$' -fuzz=FuzzMigrateCMS -fuzztime=$(FUZZTIME)

# serve-smoke drives a netcacheserve child over loopback UDP for three
# seconds with each of the benchmark's generators, closed loop (batches
# mostly fill) and paced open loop (partial batches), and exits non-zero
# if a request failed (add `-trace 1` for hit rate, loss and latency
# percentiles; see docs/SERVING.md). bench-smoke's TestSmoke is the
# reply-by-reply check.
serve-smoke:
	bash bench/run.sh -workload wire-saturate -seconds 3
	bash bench/run.sh -workload wire-paced -seconds 3
