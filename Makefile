# Convenience targets; the source of truth for CI gating is `make check`.
#
# The workspace builds fully offline (all third-party code is vendored as
# path dependencies under third_party/), so every target passes --offline.

CARGO ?= cargo
OFFLINE ?= --offline

.PHONY: check build test bench-test stress crash chaos scenarios bench bench-quick ab clippy doc fmt fmt-check loc

# The end-to-end benchmark is a package of its own (outside the
# workspace), so its tests and runs go through its manifest.
BENCH_MANIFEST := crates/bench/src/bin/bcast_bench/Cargo.toml

# The tier-1 gate: formatting, lints, rustdoc (broken or private intra-doc
# links fail), release build, the full default suite (the root package and
# every crate under crates/), the benchmark's own tests, then every
# #[ignore]-gated test whose name contains `stress`, in release mode
# (search_golden's balanced-d4 twin, the million-item publish, delta,
# 1_To_k and serving runs, and the pooled-loop soak), the deep oracle
# sweep that checks every exact strategy and bound against exhaustive
# enumeration (about a minute in release), the chaos storms (`make
# chaos`: the crash-recovery storm of `make crash`, which drives every
# checkpoint codec through kill-and-restore cycles, plus the lossy-channel
# and tenant-isolation storms), and the scaled day-in-the-life scenarios
# (`make scenarios`), which drive the sampler and republish paths at
# load. Each #[ignore]-gated test runs once: `scenarios` skips the storms
# `chaos` already ran. Once built, the chaos storms and the scenario day
# take about a second each in release on a 2-core container.
check: fmt-check clippy doc build test bench-test stress chaos scenarios

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
	$(CARGO) test --release $(OFFLINE) --test deep_cross_validation -- --ignored

# A/B comparison of two bcast_bench builds on one workload, in alternating
# pairs (the parent runs first in odd pairs, the change in even ones):
#   make ab PARENT=<bcast_bench> CHANGE=<bcast_bench> WORKLOAD=<name> \
#           [PAIRS=10 SECONDS=15 SEED=24301]
# Build each side from its own checkout with its own CARGO_TARGET_DIR.
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median with its quartiles, the change/parent ratio of the medians, and
# in how many pairs the change was better in the metric's direction (a tie
# counts for neither). Then each side's fingerprints and every run that
# exited non-zero; such a run contributes no metrics.
PAIRS ?= 10
SECONDS ?= 15
SEED ?= 24301
ab:
	@test -n "$(PARENT)" && test -n "$(CHANGE)" && test -n "$(WORKLOAD)" || { \
		echo "usage: make ab PARENT=<bcast_bench> CHANGE=<bcast_bench> WORKLOAD=<name> [PAIRS=10 SECONDS=15 SEED=24301]"; \
		exit 2; }
	@runs=$$(mktemp); trap 'rm -f "$$runs"' EXIT; \
	echo "ab: $(WORKLOAD), $(PAIRS) pairs of $(SECONDS) s at seed $(SEED)"; \
	for pair in $$(seq 1 $(PAIRS)); do \
		if [ $$((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then bin="$(PARENT)"; else bin="$(CHANGE)"; fi; \
			out=$$("$$bin" --workload $(WORKLOAD) --seconds $(SECONDS) --seed $(SEED) 2>/dev/null); \
			echo "X $$side $$pair $$?" >> "$$runs"; \
			printf '%s\n' "$$out" | awk -v side=$$side -v pair=$$pair ' \
				match($$0, /"fingerprint": "[0-9a-f]*"/) { \
					f = substr($$0, RSTART, RLENGTH); gsub(/.*: "|"/, "", f); print "F", side, pair, f } \
				/"metrics"/ { \
					rest = $$0; \
					while (match(rest, /"[a-z0-9_.]*": [{]"value": [-0-9.e+]*/)) { \
						m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH); \
						split(m, part, "\""); v = m; sub(/.*: /, "", v); print "M", side, pair, part[2], v } }' \
				>> "$$runs"; \
		done; \
	done; \
	awk ' \
		function sort(a, n,   i, j, t) { \
			for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } } \
		function q(a, n, p,   x, i) { \
			if (n == 0) return "-"; x = 1 + (n - 1) * p; i = int(x); \
			return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i]) } \
		FNR == NR { \
			if (/"end_to_end"/) inlist = 1; else if (inlist && /\]/) inlist = 0; \
			if (inlist && match($$0, /"name": "[^"]*"/)) { \
				name = substr($$0, RSTART + 9, RLENGTH - 10); match($$0, /"better": "[a-z]*"/); \
				better[name] = substr($$0, RSTART + 11, RLENGTH - 12); order[++metrics] = name } \
			next } \
		$$1 == "M" { val[$$2, $$3, $$4] = $$5; seen[$$2, $$3, $$4] = 1; if ($$3 > pairs) pairs = $$3 } \
		$$1 == "F" { fp[$$2] = fp[$$2] " " $$4 } \
		$$1 == "X" { if ($$3 > pairs) pairs = $$3; if ($$4 != 0) bad = bad sprintf("  %s run of pair %d exited %d\n", $$2, $$3, $$4) } \
		END { \
			printf "%-16s %-6s %-34s %-34s %8s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "chg/par", "change won"; \
			for (m = 1; m <= metrics; m++) { \
				name = order[m]; np = nc = won = both = 0; \
				for (i = 1; i <= pairs; i++) { \
					if (seen["parent", i, name]) p[++np] = val["parent", i, name] + 0; \
					if (seen["change", i, name]) c[++nc] = val["change", i, name] + 0; \
					if (!seen["parent", i, name] || !seen["change", i, name]) continue; \
					both++; d = val["change", i, name] - val["parent", i, name]; \
					if ((better[name] == "higher" && d > 0) || (better[name] == "lower" && d < 0)) won++ } \
				sort(p, np); sort(c, nc); mp = q(p, np, 0.5); mc = q(c, nc, 0.5); \
				printf "%-16s %-6s %-34s %-34s %8s %d/%d\n", name, better[name], \
					sprintf("%.6g [%.6g, %.6g]", mp, q(p, np, 0.25), q(p, np, 0.75)), \
					sprintf("%.6g [%.6g, %.6g]", mc, q(c, nc, 0.25), q(c, nc, 0.75)), \
					(np && nc && mp != 0) ? sprintf("%.3f", mc / mp) : "-", won, both } \
			print "fingerprints:"; print "  parent" fp["parent"]; print "  change" fp["change"]; \
			printf "non-zero exits:%s\n", bad == "" ? " none" : "\n" bad }' BENCHMARK.json "$$runs"

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
# plus the scenario-determinism property suite and the tenant-isolation
# tests — all in release mode. The tenant-isolation chaos storm is left
# to `make chaos` (`--skip chaos`), so `make check` runs it once.
scenarios:
	$(CARGO) test --release $(OFFLINE) --test scenarios \
		--test scenario_determinism --test tenant_isolation -- --include-ignored --skip chaos

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

# Non-test Rust line count, the number the roadmap asks to fall. Counts
# tracked *.rs files, leaving out the root tests/, examples/ and
# third_party/ trees and every */tests/ and */benches/ directory; within
# a file it skips blank lines, // comment lines (doc comments included)
# and each #[cfg(test)] item, up to the brace that closes it (or the
# semicolon that ends it, for a one-line item).
loc:
	@git ls-files '*.rs' \
		| grep -Ev '^(tests|examples|third_party)/|/(tests|benches)/' \
		| xargs awk ' \
			FNR == 1 { skip = 0 } \
			skip { \
				opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}"); \
				depth += opens - closes; \
				if (opens > 0) opened = 1; \
				if ((opened && depth <= 0) || (!opened && /;[ \t]*$$/)) skip = 0; \
				next \
			} \
			/^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next } \
			/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
			{ n++ } \
			END { print n }'
