# Convenience targets; the source of truth for CI gating is `make check`.
#
# The workspace builds fully offline (all third-party code is vendored as
# path dependencies under third_party/), so every target passes --offline.

CARGO ?= cargo
OFFLINE ?= --offline

.PHONY: check build test bench-test stress crash chaos scenarios bench bench-quick clippy doc fmt fmt-check

# The end-to-end benchmark is a package of its own (outside the
# workspace), so its tests and runs go through its manifest.
BENCH_MANIFEST := crates/bench/src/bin/bcast_bench/Cargo.toml

# The tier-1 gate: formatting, lints, rustdoc (broken or private intra-doc
# links fail), release build, the full default suite (the root package and
# every crate under crates/), the benchmark's own tests, then the
# #[ignore]-gated stress tests in release mode (the parallel-search runs
# and the 1M-item delta-republish chain — the `stress` filter matches
# `million_item_delta_stress` too).
check: fmt-check clippy doc build test bench-test stress

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

# --all-features so feature-gated code (e.g. the alloc-count allocator)
# is compiled and linted too, not only the default build.
clippy:
	$(CARGO) clippy $(OFFLINE) --workspace --all-targets --all-features -- -D warnings

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps $(OFFLINE)

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all -- --check
