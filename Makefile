# Convenience targets for CI and local use.

CLI = dune exec bin/interferometry_cli.exe --

.PHONY: all check test build campaign-smoke perf perf-smoke obs-smoke resilience-smoke sweep-smoke cache-sweep-smoke surrogate-smoke serve-smoke history-smoke bundle-smoke cli-smoke clean

all: build

build:
	dune build

test: check

# Tier-1 verification, plus the smokes: each drives one surface end to end
# and fails when a correctness contract breaks (bit-identity across paths,
# exit codes, byte-identical replays). None gates on timing: perf-smoke
# runs with its timing gates off (PI_PERF_GATES=0).
check:
	dune build && dune runtest
	$(MAKE) perf-smoke
	$(MAKE) sweep-smoke
	$(MAKE) cache-sweep-smoke
	$(MAKE) surrogate-smoke
	$(MAKE) obs-smoke
	$(MAKE) resilience-smoke
	$(MAKE) serve-smoke
	$(MAKE) history-smoke
	$(MAKE) bundle-smoke
	$(MAKE) cli-smoke

# Full pipeline + fused-sweep + flight-recorder + steered-sweep
# microbenchmarks; writes BENCH_pipeline.json, BENCH_sweep.json,
# BENCH_cache_sweep.json, BENCH_recorder.json and BENCH_surrogate.json,
# gates both fused axes at 3x their per-config loops and the flight
# recorder's sweep overhead at 5% (PI_PERF_GATES=1), always gates the
# surrogate's prune factor at 5x (>=5x fewer full-lane replays at <=1% max
# predicted CPI error), and appends every result to the history.jsonl
# run-history ledger (PI_HISTORY_OUT).
perf:
	PI_PERF_GATES=1 dune exec bench/perf.exe

# Tiny configuration of the same benchmarks: correctness gate, not a timing
# (the timing gates are off; bit-identity across paths is still enforced,
# recorder included, and so are the steered sweep's tolerance and prune
# factor). The five BENCH documents go to _perf-smoke/; each must parse,
# self-compare clean and carry the committed document's keys in order; no
# history appends. A malformed PI_PERF_GATES, and a malformed integer
# knob, must each exit 2 before any benchmark runs.
perf-smoke:
	rm -rf _perf-smoke && mkdir -p _perf-smoke
	PI_PERF_GATES=3x PI_PERF_DIR=_perf-smoke/malformed PI_HISTORY_OUT=- \
	  dune exec bench/perf.exe; test $$? -eq 2 && test ! -e _perf-smoke/malformed || \
	  { echo "perf-smoke: PI_PERF_GATES=3x did not exit 2 before running"; exit 1; }
	PI_PERF_SCALE=2x PI_PERF_DIR=_perf-smoke/malformed PI_HISTORY_OUT=- \
	  dune exec bench/perf.exe; test $$? -eq 2 && test ! -e _perf-smoke/malformed || \
	  { echo "perf-smoke: PI_PERF_SCALE=2x did not exit 2 before running"; exit 1; }
	PI_PERF_SCALE=2 PI_PERF_LAYOUTS=2 PI_SWEEP_SCALE=1 PI_PERF_GATES=0 \
	  PI_PERF_DIR=_perf-smoke PI_HISTORY_OUT=- dune exec bench/perf.exe
	for f in pipeline sweep cache_sweep recorder surrogate; do \
	  $(CLI) compare _perf-smoke/BENCH_$$f.json _perf-smoke/BENCH_$$f.json > /dev/null || exit 1; \
	  grep -o '"[a-z_]*":' BENCH_$$f.json > _perf-smoke/$$f.committed-keys; \
	  grep -o '"[a-z_]*":' _perf-smoke/BENCH_$$f.json > _perf-smoke/$$f.keys; \
	  cmp _perf-smoke/$$f.committed-keys _perf-smoke/$$f.keys || exit 1; \
	done
	@echo "perf-smoke OK: malformed gate switch and knob refused; five BENCH documents written, each parses, self-compares clean and keeps the committed keys"

# Sharded fused sweep through the CLI: two domains, then a sequential
# per-config study, which must match the fused one bit for bit. The
# data-heavy 183.equake in 3 shards serves most L2 references from the
# shared group image; 403.gcc's wrong-path touches split L1I sets (15 of
# 64 in the whole batch), here across a shard boundary.
sweep-smoke:
	$(CLI) sweep 429.mcf --scale 1 --jobs 2 --check
	$(CLI) sweep 183.equake --scale 1 --jobs 3 --check
	$(CLI) sweep 403.gcc --scale 1 --jobs 2 --check

# The same contract on the cache axis: a 2-domain sharded 100-geometry
# sweep, checked bit for bit against the sequential per-geometry loop. The
# data-heavy 470.lbm in 3 shards cuts L2 groups at the shard boundaries.
cache-sweep-smoke:
	$(CLI) sweep 429.mcf --scale 1 --axis cache --jobs 2 --check
	$(CLI) sweep 470.lbm --scale 1 --axis cache --jobs 3 --check

# The surrogate-steering acceptance bound, end to end, through the CLI's
# --max-err/--check path (perf-smoke gates the steered-sweep benchmark
# itself: prune factor >= 5x, every predicted lane within 1% CPI of the
# golden full fused study, replayed lanes bit-identical). Leg 1:
# 183.equake settles in one round. Leg 2: on 400.perlbench no refit
# certifies a lane, so the break-even rule doubles its rounds (5, 10, 20,
# ... lanes, each a selection of the grid batch) and the leg also fails
# past 6 rounds (5 with the rule, 27 without). Leg 3 steers the cache axis
# in 2 shards (429.mcf: 5 rounds, 84 of 100 lanes). Steering is
# deterministic, so this never flakes.
surrogate-smoke:
	$(CLI) sweep 183.equake --scale 1 --max-err 1.0 --check
	out=$$($(CLI) sweep 400.perlbench --scale 1 --max-err 1.0 --check) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	rounds=$$(echo "$$out" | sed -n 's/^surrogate: .*, \([0-9][0-9]*\) rounds,.*/\1/p'); \
	test -n "$$rounds" && test "$$rounds" -le 6 || \
	  { echo "surrogate-smoke: 400.perlbench steered in $$rounds rounds, over 6"; exit 1; }
	$(CLI) sweep 429.mcf --scale 1 --axis cache --max-err 1.0 --jobs 2 --check

# Tiny cold campaign with both observability artifacts; asserts the metric
# scrape accounts for every computed job and that a trace was written.
obs-smoke:
	rm -rf _obs-smoke && mkdir -p _obs-smoke
	$(CLI) campaign --quick --bench 400.perlbench --layouts 4 --jobs 2 \
	  --manifest _obs-smoke/manifest.json \
	  --metrics-out _obs-smoke/metrics.prom --trace-out _obs-smoke/trace.json
	grep -q '^pi_obs_observations_total 4$$' _obs-smoke/metrics.prom
	grep -q '"traceEvents"' _obs-smoke/trace.json
	@echo "obs-smoke OK: scrape accounts for all 4 jobs, trace written"

# A 2-benchmark quick-config campaign exercising the parallel scheduler,
# the observation cache and the telemetry stream end to end. Run it twice:
# the second invocation should report every job as a cache hit.
campaign-smoke:
	$(CLI) campaign --quick --bench 400.perlbench --bench 456.hmmer \
	  --layouts 8 --jobs 2 --cache-dir _campaign-cache \
	  --events _campaign-cache/events.jsonl

# Crash-safe campaign, end to end. Leg 1 "interrupts" a campaign with
# injected worker faults and no retries (exit 3, partial cache + manifest
# on disk). Leg 2 resumes from that manifest, recomputing only the killed
# jobs, and must leave a complete manifest. Leg 3 reruns the same spec
# with --retries and must recover by itself; its dataset must be
# byte-identical to the resumed one (faults and retries never change the
# science). Leg 4 cuts the last row of a finished entry mid-row, as a
# crash mid-append would: the rerun must recompute exactly that one
# observation and leave the entry byte-identical again. Fault seeds are
# deterministic, so this never flakes.
resilience-smoke:
	rm -rf _resilience-smoke && mkdir -p _resilience-smoke
	! $(CLI) campaign --quick --bench 400.perlbench --bench 456.hmmer \
	  --layouts 6 --jobs 2 --cache-dir _resilience-smoke/cache \
	  --fault-inject rate=0.4,kind=exn,seed=2
	grep -q '"checkpoint":false' _resilience-smoke/cache/manifest.json
	grep -q '"complete":false' _resilience-smoke/cache/manifest.json
	$(CLI) campaign --resume _resilience-smoke/cache/manifest.json --jobs 2
	grep -q '"complete":true' _resilience-smoke/cache/manifest.json
	grep -q '"failed_jobs":0' _resilience-smoke/cache/manifest.json
	$(CLI) campaign --quick --bench 400.perlbench --bench 456.hmmer \
	  --layouts 6 --jobs 4 --cache-dir _resilience-smoke/retry \
	  --fault-inject rate=0.3,kind=exn,seed=1 --retries 3
	cmp _resilience-smoke/cache/400.perlbench.*.csv _resilience-smoke/retry/400.perlbench.*.csv
	cmp _resilience-smoke/cache/456.hmmer.*.csv _resilience-smoke/retry/456.hmmer.*.csv
	truncate -s -7 _resilience-smoke/retry/456.hmmer.*.csv
	$(CLI) campaign --quick --bench 400.perlbench --bench 456.hmmer \
	  --layouts 6 --jobs 2 --cache-dir _resilience-smoke/retry
	grep -q '"computed_jobs":1,' _resilience-smoke/retry/manifest.json
	cmp _resilience-smoke/cache/456.hmmer.*.csv _resilience-smoke/retry/456.hmmer.*.csv
	@echo "resilience-smoke OK: interrupt+resume complete, retried run bit-identical, torn append recomputed"

# Daemon crash-recovery, end to end: start `interferometry serve`, submit
# a job, SIGKILL the daemon mid-run, restart on the same state directory.
# The WAL replay must finish the job exactly once, and both the result
# document and the observation-cache CSVs must be byte-identical to an
# uninterrupted run on a fresh daemon (see docs/SERVING.md).
serve-smoke:
	dune build bin/interferometry_cli.exe
	bash scripts/serve_smoke.sh

# The perf-regression sentinel, end to end. Two identical quick campaigns
# append to one history ledger; comparing their records must be clean
# (the second run is fully cached, so its zero obs/sec must NOT trip the
# throughput gate). Then a forged 4x obs/sec collapse must make
# `interferometry compare` exit non-zero. Deterministic by construction.
history-smoke:
	dune build bin/interferometry_cli.exe
	rm -rf _history-smoke && mkdir -p _history-smoke
	$(CLI) campaign --quick --bench 429.mcf --layouts 4 --jobs 2 \
	  --cache-dir _history-smoke/a --history _history-smoke/history.jsonl
	$(CLI) campaign --quick --bench 429.mcf --layouts 4 --jobs 2 \
	  --cache-dir _history-smoke/b --history _history-smoke/history.jsonl
	$(CLI) history --ledger _history-smoke/history.jsonl
	$(CLI) compare _history-smoke/history.jsonl@0 _history-smoke/history.jsonl@1
	printf '{"obs_per_sec":1000,"r_squared":0.99,"failed_jobs":0}' > _history-smoke/base.json
	printf '{"obs_per_sec":250,"r_squared":0.99,"failed_jobs":0}' > _history-smoke/slow.json
	$(CLI) compare _history-smoke/base.json _history-smoke/base.json
	! $(CLI) compare _history-smoke/base.json _history-smoke/slow.json
	@echo "history-smoke OK: self-compare clean, injected regression caught"

# Distributed campaigns + content-addressed run bundles, end to end.
# Leg 1: a 2-worker campaign and a 1-worker campaign must leave
# bit-identical cache CSVs and bundle outputs (the --workers N invariant).
# Leg 2: the bundle must verify, replay byte-for-byte from its pinned
# inputs, and self-diff clean. Leg 3: one flipped byte in a pinned input
# must fail `bundle verify`, and a forged metric collapse must make
# `bundle diff` exit non-zero. Deterministic by construction.
bundle-smoke:
	dune build bin/interferometry_cli.exe
	rm -rf _bundle-smoke && mkdir -p _bundle-smoke
	$(CLI) campaign --quick --bench 429.mcf --layouts 6 --workers 2 \
	  --cache-dir _bundle-smoke/w2 --bundle _bundle-smoke/b2
	$(CLI) campaign --quick --bench 429.mcf --layouts 6 --workers 1 \
	  --cache-dir _bundle-smoke/w1 --bundle _bundle-smoke/b1
	cmp _bundle-smoke/w1/429.mcf.*.csv _bundle-smoke/w2/429.mcf.*.csv
	cmp _bundle-smoke/b1/outputs/429.mcf.csv _bundle-smoke/b2/outputs/429.mcf.csv
	$(CLI) bundle verify _bundle-smoke/b2
	$(CLI) bundle replay _bundle-smoke/b2 --out _bundle-smoke/b2.replay --workers 2
	cmp _bundle-smoke/b2/outputs/429.mcf.csv _bundle-smoke/b2.replay/outputs/429.mcf.csv
	$(CLI) bundle diff _bundle-smoke/b2 _bundle-smoke/b2
	cp -r _bundle-smoke/b2 _bundle-smoke/forged
	printf x | dd of=_bundle-smoke/forged/inputs/config.json bs=1 seek=3 conv=notrunc status=none
	! $(CLI) bundle verify _bundle-smoke/forged
	sed -i 's/"failed_jobs":[0-9.eE+-]*/"failed_jobs":5/' _bundle-smoke/forged/MANIFEST.json
	! $(CLI) bundle diff _bundle-smoke/b2 _bundle-smoke/forged
	@echo "bundle-smoke OK: workers bit-identical, replay byte-for-byte, forgeries caught"

# The CLI paths no other smoke drives. Leg 1: five bad flag values must
# each exit 2. Leg 2: a cache-axis sweep with --history and --bundle and a
# steered predictor sweep with --bundle; both bundles must verify, the
# ledger must list the one sweep record, and replaying a sweep bundle
# must exit 2 (only campaign bundles replay). Leg 3: self-compare and
# self-diff at an overridden --tolerance are clean. Leg 4: resuming a
# manifest whose config_digest was rewritten must exit 2 on the digest
# check. Deterministic, a few seconds.
cli-smoke:
	dune build bin/interferometry_cli.exe
	rm -rf _cli-smoke && mkdir -p _cli-smoke
	for args in "sweep 429.mcf --scale 1 --jobs 0" \
	  "sweep 429.mcf --scale 1 --budget 5 --max-err 1" \
	  "campaign --quick --bench 429.mcf --layouts 0" \
	  "campaign --quick --bench 429.mcf --workers 0" \
	  "campaign --quick --suite 1999"; do \
	  $(CLI) $$args 2> /dev/null; rc=$$?; test $$rc -eq 2 || \
	    { echo "cli-smoke: '$$args' exited $$rc, not 2"; exit 1; }; \
	done
	$(CLI) sweep 429.mcf --scale 1 --axis cache --history _cli-smoke/H.jsonl \
	  --bundle _cli-smoke/B
	$(CLI) sweep 183.equake --scale 1 --max-err 1.0 --bundle _cli-smoke/B2
	$(CLI) bundle verify _cli-smoke/B
	$(CLI) bundle verify _cli-smoke/B2
	test "$$($(CLI) history --ledger _cli-smoke/H.jsonl | grep -c ' sweep  *429.mcf/cache ')" -eq 1
	$(CLI) bundle replay _cli-smoke/B; test $$? -eq 2
	$(CLI) compare _cli-smoke/H.jsonl@0 _cli-smoke/H.jsonl@0 --tolerance 10
	$(CLI) bundle diff _cli-smoke/B _cli-smoke/B --tolerance 10
	$(CLI) campaign --quick --bench 429.mcf --layouts 2 --manifest _cli-smoke/m.json
	sed 's/"config_digest":"[0-9a-f]*"/"config_digest":"0000"/' _cli-smoke/m.json \
	  > _cli-smoke/forged.json
	$(CLI) campaign --resume _cli-smoke/forged.json 2> _cli-smoke/resume.err; test $$? -eq 2
	grep -q 'config digest mismatch' _cli-smoke/resume.err
	@echo "cli-smoke OK: bad flags exit 2, sweep bundles verify, sweep replay refused, self-gates clean, forged digest refused"

clean:
	dune clean
	rm -rf _campaign-cache _obs-smoke _resilience-smoke _serve-smoke _serve \
	  _history-smoke _bundle-smoke _perf-smoke _cli-smoke history.jsonl
