# Convenience targets; the source of truth for CI gating is `make check`.
#
# The workspace builds fully offline (all third-party code is vendored as
# path dependencies under third_party/), so every target passes --offline.

CARGO ?= cargo
OFFLINE ?= --offline

.PHONY: check build test bench-test stress crash chaos scenarios bench bench-quick bench-json publish-bench delta-bench snapshot-bench serve-bench robust-bench clippy fmt fmt-check

# The end-to-end benchmark is a package of its own (outside the
# workspace), so its tests and runs go through its manifest.
BENCH_MANIFEST := crates/bench/src/bin/bcast_bench/Cargo.toml

# The tier-1 gate: formatting, lints, release build, the full default
# suite (the root package and every crate under crates/), the benchmark's
# own tests, then the #[ignore]-gated stress tests in release mode (the
# parallel-search runs and the 1M-item delta-republish chain — the
# `stress` filter matches `million_item_delta_stress` too).
check: fmt-check clippy build test bench-test stress

build:
	$(CARGO) build --release $(OFFLINE)

test:
	$(CARGO) test -q $(OFFLINE)

# Every benchmark workload at 1/100 scale, with its correctness checks.
bench-test:
	$(CARGO) test -q $(OFFLINE) --manifest-path $(BENCH_MANIFEST)

# A quick pass of the end-to-end benchmark (BENCHMARK.json): its tests,
# then every workload for 3 timed seconds each — about a minute in all.
bench-quick: bench-test
	$(CARGO) run --release $(OFFLINE) --quiet --manifest-path $(BENCH_MANIFEST) -- \
		--workload all --seconds 3

stress:
	$(CARGO) test --release $(OFFLINE) -- --ignored stress

# Crash-recovery storm: kill the service at an adversarial schedule of
# slice boundaries, restore each time from the latest manifest, and
# require the stitched run to fingerprint bit-identically to one that
# never crashed (panic quarantine and shedding active throughout).
crash:
	$(CARGO) test --release $(OFFLINE) --test checkpoint_restore -- --ignored

# Lossy-channel chaos stress: 100k requests under 35% erasure and a burst
# storm, pinning thread-count invariance and recovery-budget bounds; plus
# the tenant-isolation storm — one tenant under sustained ~20%
# Gilbert–Elliott loss while its neighbors must match their solo-run
# baselines exactly; plus the crash-recovery storm (`make crash`).
chaos: crash
	$(CARGO) test --release $(OFFLINE) --test faults_recovery \
		--test tenant_isolation -- --ignored chaos

# Tier-2 "day in the life" sweep: the four canonical scenarios (flash
# crowd, diurnal drift, brownout, tenant churn) through the multi-tenant
# serving loop at scaled load, including the #[ignore]-gated long runs,
# plus the scenario-determinism property suite — all in release mode.
scenarios:
	$(CARGO) test --release $(OFFLINE) --test scenarios \
		--test scenario_determinism --test tenant_isolation -- --include-ignored

bench:
	$(CARGO) bench $(OFFLINE) -p bcast-bench --bench search_strategies

# Maintains the machine-readable perf trajectory: the first run records the
# "before" section, later runs only replace "after" (see bench_json's docs).
# BENCH_PR3.json records scalar-vs-compiled serving throughput and
# BENCH_PR4.json publish build time: the vendored pre-PR4 "seed" pipeline
# (quadratic — measured once per machine, ~25 min at 1M, then carried
# forward from the existing file) vs the current three-pass API vs the
# fused Publisher, the latter two re-measured every run. The alloc-count
# feature installs the counting global allocator so PR4's heap-allocation
# columns are real (its per-alloc overhead is one thread-local increment —
# noise for the other sections). BENCH_PR5.json records lossy-channel
# serving: the FaultPlan::none() fast path as the regression guard against
# the PR3 numbers, plus throughput/delivery-rate/recovery-wait rows for the
# standard fault grid (1% / 5% / 20% erasure and bursty). BENCH_PR6.json
# records live multi-tenant serving: sustained aggregate throughput and
# worst p99 across 8 concurrent tenants in the ServeLoop, plus one row per
# canonical day-in-the-life scenario, each asserted SLO-clean with zero
# rebuild downtime before the numbers are written. BENCH_PR7.json records
# the incremental delta republish lane: a churn sweep (0.01%/0.1%/1%/10%
# reweighted per epoch) at 65k and 1M items, delta vs full warm wall time
# with every patched epoch cross-checked bit-identical to a twin full
# publish, the 1M rows at <=1% churn asserted >=100x faster, and the
# PR4/PR5/PR6 headline numbers carried forward as regression context.
# BENCH_PR8.json records the chunked serve kernel vs the scalar oracle
# (iterations interleaved against the container's throughput phases,
# BatchMetrics asserted bit-identical, the 65k row asserted >=1.3x) and
# the 1M-item snapshot cold-start vs the full warm publish it displaces
# (asserted >=100x and bit-identical after the disk round-trip).
# BENCH_PR9.json records the service/kernel gap after the persistent
# worker pool, LPT lane scheduling, the allocation-free slice path and
# the drift-gated republish: the steady-state gated service asserted
# >=0.70x the raw serve_batch ceiling (BENCH_PR5's zero-fault fixture,
# efficiency taken from ceiling-paired rounds), warm steady slices
# asserted zero-alloc under the counting allocator, and the PR5/7/8
# headline assertions re-checked from the files on disk.
# BENCH_PR10.json records crash safety: the sustained PR-9 workload run
# plain vs checkpointing every 24 slices (paired rounds, bit-identical
# cross-check, overhead asserted <=5%) and a cold restore of 8 tenants x
# 65k items driven through its first slice (restore-to-serving asserted
# <=50 ms), with the PR7/8/9 headline assertions re-checked from disk.
bench-json:
	$(CARGO) run --release $(OFFLINE) -p bcast-bench --features alloc-count \
		--bin bench_json -- --merge-into BENCH_PR2.json \
		--serving-into BENCH_PR3.json --publish-into BENCH_PR4.json \
		--faults-into BENCH_PR5.json --serve-into BENCH_PR6.json \
		--delta-into BENCH_PR7.json --kernel-into BENCH_PR8.json \
		--service-into BENCH_PR9.json --robust-into BENCH_PR10.json

# Regenerates only BENCH_PR4.json (fused publish at 65k/1M/4M items),
# skipping the exact-search and serving sections.
publish-bench:
	$(CARGO) run --release $(OFFLINE) -p bcast-bench --features alloc-count \
		--bin bench_json -- --publish-into BENCH_PR4.json

# Regenerates only BENCH_PR7.json (incremental delta republish churn
# sweep at 65k/1M items), skipping the exact-search and serving sections;
# the regression row is carried forward from the BENCH_PR4/5/6 files on
# disk rather than re-measured.
delta-bench:
	$(CARGO) run --release $(OFFLINE) -p bcast-bench \
		--bin bench_json -- --delta-into BENCH_PR7.json

# Regenerates only BENCH_PR8.json (chunked serve kernel at 65k/1M items
# plus the 1M snapshot cold-start), skipping every other section; the
# regression row is carried forward from the BENCH_PR5/7 files on disk.
snapshot-bench:
	$(CARGO) run --release $(OFFLINE) -p bcast-bench \
		--bin bench_json -- --kernel-into BENCH_PR8.json

# Regenerates only BENCH_PR9.json (service/kernel efficiency + the
# zero-alloc steady-slice gate), skipping every other section. Needs
# alloc-count so the allocation column is real; regression rows are
# carried forward from the BENCH_PR5/6/7/8 files on disk.
serve-bench:
	$(CARGO) run --release $(OFFLINE) -p bcast-bench --features alloc-count \
		--bin bench_json -- --service-into BENCH_PR9.json

# Regenerates only BENCH_PR10.json (checkpoint overhead + cold restore-
# to-serving), skipping every other section; regression rows are carried
# forward from the BENCH_PR7/8/9 files on disk.
robust-bench:
	$(CARGO) run --release $(OFFLINE) -p bcast-bench \
		--bin bench_json -- --robust-into BENCH_PR10.json

# --all-features so feature-gated code (e.g. the alloc-count allocator)
# is compiled and linted too, not only the default build.
clippy:
	$(CARGO) clippy $(OFFLINE) --workspace --all-targets --all-features -- -D warnings

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all -- --check
