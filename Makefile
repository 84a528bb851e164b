# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test bench bench-smoke bench-compare docs check check-budget check-wmc check-trace check-serve check-chaos check-prepare check-storage check-obs

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Build the odoc API docs with warnings as errors (see the root dune file).
docs:
	dune build @check-docs

# Smoke test for the resource guards: an intractable query under a 2 s
# deadline must come back as a degraded (ε,δ)-answer instead of hanging.
# With --no-degrade and no applicable method, a closed query and its
# --free twin must both fail with the typed no-method error (exit 6).
# `timeout 10` is the belt to the deadline's braces — if the guard ever
# regresses into a hang, this target fails rather than wedging CI.
check-budget: build
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	dune exec --no-build bin/probdb.exe -- gen --out "$$tmp/db" --domain 24 --seed 7 \
		R:1:0.9 S:2:0.85 T:1:0.9 >/dev/null; \
	out=$$(timeout 10 dune exec --no-build bin/probdb.exe -- eval --db "$$tmp/db" \
		--deadline-ms 2000 --stats-json \
		"exists x y. R(x) && S(x,y) && T(y)") || \
		{ echo "check-budget: eval failed or hung (exit $$?)"; exit 1; }; \
	echo "$$out" | grep -q '"degraded": true' || \
		{ echo "check-budget: expected a degraded answer"; echo "$$out"; exit 1; }; \
	echo "check-budget: degraded (ε,δ)-answer within deadline — OK"; \
	for free in "--free x" ""; do \
		if [ -n "$$free" ]; then q="R(x)"; else q="exists x. R(x)"; fi; \
		timeout 10 dune exec --no-build bin/probdb.exe -- eval --db data/fig1 $$free \
			--no-degrade --method symmetric "$$q" >/dev/null 2>"$$tmp/err"; code=$$?; \
		{ [ $$code -eq 6 ] && grep -q '^probdb: no method' "$$tmp/err"; } || \
			{ echo "check-budget: '$$q' $$free: expected exit 6 and 'probdb: no method', got exit $$code"; \
			  cat "$$tmp/err"; exit 1; }; \
	done; \
	echo "check-budget: --no-degrade without a method is a typed no-method error (closed and --free) — OK"

# Smoke test for the E15 parallel/columnar benchmark: run it at toy sizes
# (PROBDB_BENCH_SMOKE=1) and assert BENCH_parallel.json carries the schema
# downstream tooling reads — the columnar-vs-list join rows and the
# cross-domain-count determinism flag. `timeout 120` guards against the
# worker pool wedging on exotic machines.
bench-smoke: build
	@timeout 120 env PROBDB_BENCH_SMOKE=1 PROBDB_TRACE=1 dune exec --no-build bench/main.exe -- e15 \
		>/dev/null || { echo "bench-smoke: e15 failed or hung (exit $$?)"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --validate-trace TRACE_e15.json || \
		{ echo "bench-smoke: TRACE_e15.json failed trace validation"; exit 1; }; \
	for key in '"experiment": "parallel"' '"smoke": true' '"join_speedup"' \
		'"columnar_rows_per_s"' '"estimates_identical": true' '"scaling"'; do \
		grep -q "$$key" BENCH_parallel.json || \
			{ echo "bench-smoke: BENCH_parallel.json missing $$key"; \
			  cat BENCH_parallel.json; exit 1; }; \
	done; \
	echo "bench-smoke: BENCH_parallel.json schema + determinism flag — OK"; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e16 \
		>/dev/null || { echo "bench-smoke: e16 failed or hung (exit $$?)"; exit 1; }; \
	for key in '"experiment": "wmc"' '"smoke": true' '"speedup"' \
		'"bit_identical": true' '"cache_hit_rate"' '"cache_evictions"'; do \
		grep -q "$$key" BENCH_wmc.json || \
			{ echo "bench-smoke: BENCH_wmc.json missing $$key"; \
			  cat BENCH_wmc.json; exit 1; }; \
	done; \
	echo "bench-smoke: BENCH_wmc.json schema + bit-identity flag — OK"; \
	timeout 300 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e18 \
		>/dev/null || { echo "bench-smoke: e18 failed or hung (exit $$?)"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --validate-chaos BENCH_chaos.json || \
		{ echo "bench-smoke: BENCH_chaos.json failed schema validation"; exit 1; }; \
	echo "bench-smoke: BENCH_chaos.json schema + soak invariants — OK"; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e19 \
		>/dev/null || { echo "bench-smoke: e19 failed or hung (exit $$?)"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --validate-prepare BENCH_prepare.json || \
		{ echo "bench-smoke: BENCH_prepare.json failed schema validation"; exit 1; }; \
	echo "bench-smoke: BENCH_prepare.json schema + zero-drift invariant — OK"; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e20 \
		>/dev/null || { echo "bench-smoke: e20 failed or hung (exit $$?)"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --validate-storage BENCH_storage.json || \
		{ echo "bench-smoke: BENCH_storage.json failed schema validation"; exit 1; }; \
	echo "bench-smoke: BENCH_storage.json schema + open-speedup + lazy-fault invariants — OK"

# The grounded-WMC equivalence suite on its own: the clause-database
# counter against brute force and the tree DPLL reference across the
# cache/components config matrix, including the deterministic guard-trip
# fault injection ("guard trips mid-solve degrade cleanly").
check-wmc: build
	dune exec --no-build test/main.exe -- test 'cnf|wmc' -c

# The observability suite: trace/metrics/histogram unit and property
# tests, then an end-to-end run — `probdb eval --trace` on a star query
# must produce Chrome trace_event JSON that passes the validator.
check-trace: build
	@dune exec --no-build test/main.exe -- test 'trace|metrics|obs' -c || \
		{ echo "check-trace: unit/property suites failed"; exit 1; }; \
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	dune exec --no-build bin/probdb.exe -- gen --out "$$tmp/db" --domain 8 --seed 5 \
		R:1:0.5 S:2:0.3 T:1:0.5 >/dev/null; \
	dune exec --no-build bin/probdb.exe -- eval --db "$$tmp/db" \
		--trace "$$tmp/trace.json" \
		"exists x y. R(x) && S(x,y) && T(y)" >/dev/null || \
		{ echo "check-trace: eval --trace failed"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --validate-trace "$$tmp/trace.json" || \
		{ echo "check-trace: emitted trace failed validation"; exit 1; }; \
	echo "check-trace: suites + end-to-end trace schema — OK"

# The serving suite at soak scale plus the E17 load generator: PROBDB_SOAK=1
# widens the multi-client test to 8 clients x 200 rounds (bit-identical
# answers, zero sheds on an uncontended server), then the closed-loop bench
# runs at smoke sizes and BENCH_serve.json must pass the schema validator —
# the serving counterpart of --validate-trace (docs/SERVING.md).
check-serve: build
	@timeout 300 env PROBDB_SOAK=1 dune exec --no-build test/main.exe -- test serve || \
		{ echo "check-serve: serve suite failed under soak (exit $$?)"; exit 1; }; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e17 \
		>/dev/null || { echo "check-serve: e17 failed or hung (exit $$?)"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --validate-serve BENCH_serve.json || \
		{ echo "check-serve: BENCH_serve.json failed schema validation"; exit 1; }; \
	echo "check-serve: soak suite + load-gen schema + all requests answered — OK"

# The observability gate: the windowed-aggregation and request-id unit
# suite, the request-correlation serve tests, then the E21 overhead
# experiment at smoke sizes — BENCH_obs.json must pass the schema
# validator, which also asserts the telemetry contract: overhead within
# budget, request-id coverage 1.0, live windows, exact counters.
check-obs: build
	@timeout 300 dune exec --no-build test/main.exe -- test window || \
		{ echo "check-obs: window/request-id suite failed (exit $$?)"; exit 1; }; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e21 \
		>/dev/null || { echo "check-obs: e21 failed or hung (exit $$?)"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --validate-obs BENCH_obs.json || \
		{ echo "check-obs: BENCH_obs.json failed schema validation"; exit 1; }; \
	echo "check-obs: window suite + telemetry overhead budget + id coverage — OK"

# The chaos-engineering suite: the deterministic fault-injection tests
# (seeded schedules, the self-healing worker pool, the resilient client),
# then the E18 chaos soak at smoke sizes — BENCH_chaos.json must pass the
# schema validator, which also asserts the robustness contract: every
# request accounted for, faults injected at >= 5 sites, the server alive
# at the end, and chaos-disabled answers bit-identical to the control.
# PROBDB_SOAK=1 turns the smoke soak into the long one (25k requests per
# fault-rate level) — same invariants, hours of wall-clock headroom.
check-chaos: build
	@timeout 300 dune exec --no-build test/main.exe -- test chaos || \
		{ echo "check-chaos: chaos suite failed (exit $$?)"; exit 1; }; \
	if [ -n "$$PROBDB_SOAK" ]; then \
		timeout 3600 env PROBDB_SOAK=1 dune exec --no-build bench/main.exe -- e18 \
			>/dev/null || { echo "check-chaos: e18 soak failed or hung (exit $$?)"; exit 1; }; \
	else \
		timeout 300 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e18 \
			>/dev/null || { echo "check-chaos: e18 failed or hung (exit $$?)"; exit 1; }; \
	fi; \
	dune exec --no-build bench/compare.exe -- --validate-chaos BENCH_chaos.json || \
		{ echo "check-chaos: BENCH_chaos.json failed schema validation"; exit 1; }; \
	echo "check-chaos: chaos suite + seeded soak + schema — OK"

# The prepared-queries suite both ways round, then the E19 bench: the
# prepare tests must pass with the cache on AND with PROBDB_NO_PLAN_CACHE=1
# (capacity-0 default cache — identical pipeline, nothing retained), and
# BENCH_prepare.json must pass the schema validator, which also asserts the
# cache contract: warm >= 2x faster than cold (1.2x at smoke sizes), served
# hit rate >= 0.9 on repeated templates, and zero answer drift.
check-prepare: build
	@timeout 300 dune exec --no-build test/main.exe -- test prepare || \
		{ echo "check-prepare: prepare suite failed (exit $$?)"; exit 1; }; \
	timeout 300 env PROBDB_NO_PLAN_CACHE=1 dune exec --no-build test/main.exe -- test prepare || \
		{ echo "check-prepare: prepare suite failed with the cache disabled"; exit 1; }; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e19 \
		>/dev/null || { echo "check-prepare: e19 failed or hung (exit $$?)"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --validate-prepare BENCH_prepare.json || \
		{ echo "check-prepare: BENCH_prepare.json failed schema validation"; exit 1; }; \
	echo "check-prepare: suite both cache modes + warm speedup + zero drift — OK"

# The packed-storage suite at soak scale (the concurrent serve test reads
# one shared mapped container from every worker), then an end-to-end CLI
# check: gen a CSV directory, pack it with full checksum verification,
# and the packed eval must print byte-identical output to the CSV eval;
# a corrupt copy (one flipped header byte) must be rejected with the
# typed Io diagnostic, exit code 2.
check-storage: build
	@timeout 300 env PROBDB_SOAK=1 dune exec --no-build test/main.exe -- test storage || \
		{ echo "check-storage: storage suite failed under soak (exit $$?)"; exit 1; }; \
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	q='exists x y. R(x) && S(x,y) && T(y)'; \
	dune exec --no-build bin/probdb.exe -- gen --out "$$tmp/db" --domain 12 --seed 9 \
		R:1:0.5 S:2:0.3 T:1:0.5 >/dev/null; \
	dune exec --no-build bin/probdb.exe -- pack "$$tmp/db" "$$tmp/db.pdb" --verify >/dev/null || \
		{ echo "check-storage: pack --verify failed"; exit 1; }; \
	dune exec --no-build bin/probdb.exe -- eval --db "$$tmp/db" "$$q" > "$$tmp/csv.out" || \
		{ echo "check-storage: csv eval failed"; exit 1; }; \
	dune exec --no-build bin/probdb.exe -- eval --db "$$tmp/db.pdb" "$$q" > "$$tmp/pdb.out" || \
		{ echo "check-storage: packed eval failed"; exit 1; }; \
	cmp -s "$$tmp/csv.out" "$$tmp/pdb.out" || \
		{ echo "check-storage: packed answer differs from csv answer"; \
		  diff "$$tmp/csv.out" "$$tmp/pdb.out"; exit 1; }; \
	cp "$$tmp/db.pdb" "$$tmp/bad.pdb"; \
	printf 'X' | dd of="$$tmp/bad.pdb" bs=1 seek=70 conv=notrunc 2>/dev/null; \
	dune exec --no-build bin/probdb.exe -- eval --db "$$tmp/bad.pdb" "$$q" \
		>/dev/null 2>"$$tmp/bad.err"; code=$$?; \
	[ $$code -eq 2 ] || \
		{ echo "check-storage: corrupt container exited $$code, want 2"; \
		  cat "$$tmp/bad.err"; exit 1; }; \
	grep -qi 'checksum\|corrupt' "$$tmp/bad.err" || \
		{ echo "check-storage: corrupt container lacked a typed diagnostic"; \
		  cat "$$tmp/bad.err"; exit 1; }; \
	echo "check-storage: soak suite + bit-identical CLI roundtrip + typed corruption — OK"

# The bench regression gate, self-tested both ways: two smoke runs of the
# same experiment must pass the comparison (threshold 4x absorbs smoke-run
# noise), and a synthetically regressed copy (timings x25) must fail it.
bench-compare: build
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e16 \
		>/dev/null || { echo "bench-compare: e16 run 1 failed"; exit 1; }; \
	cp BENCH_wmc.json "$$tmp/old.json"; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e16 \
		>/dev/null || { echo "bench-compare: e16 run 2 failed"; exit 1; }; \
	cp BENCH_wmc.json "$$tmp/new.json"; \
	dune exec --no-build bench/compare.exe -- "$$tmp/old.json" "$$tmp/new.json" \
		--threshold 4 || \
		{ echo "bench-compare: real pair flagged as regression"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- --degrade 25 "$$tmp/old.json" \
		"$$tmp/bad.json" >/dev/null; \
	if dune exec --no-build bench/compare.exe -- "$$tmp/old.json" "$$tmp/bad.json" \
		--threshold 4 >/dev/null; then \
		echo "bench-compare: synthetic regression NOT caught"; exit 1; \
	fi; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e17 \
		>/dev/null || { echo "bench-compare: e17 run 1 failed"; exit 1; }; \
	cp BENCH_serve.json "$$tmp/serve-old.json"; \
	timeout 120 env PROBDB_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- e17 \
		>/dev/null || { echo "bench-compare: e17 run 2 failed"; exit 1; }; \
	dune exec --no-build bench/compare.exe -- "$$tmp/serve-old.json" BENCH_serve.json \
		--threshold 4 --min-s 0.01 || \
		{ echo "bench-compare: serve pair flagged as regression"; exit 1; }; \
	echo "bench-compare: wmc + serve pairs pass, synthetic x25 regression caught — OK"

# What CI runs: build, test suite, the budget and benchmark smoke tests,
# the WMC equivalence suite, the observability suite, the serving soak,
# the chaos-engineering suite, the prepared-queries suite, the
# packed-storage suite, and — when odoc is installed — the
# fatal-warnings documentation build.
check: build test check-budget bench-smoke check-wmc check-trace check-serve check-chaos check-prepare check-storage check-obs
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @check-docs; \
	else \
		echo "odoc not installed; skipping @check-docs (opam install odoc)"; \
	fi
