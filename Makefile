# Convenience targets for the repro library.

.PHONY: install test lint ci bench bench-smoke bench-gate bench-baseline \
	chaos crash serve-bench perfbench-selftest experiments experiments-full \
	examples

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# The paper-invariant static checker (RPR001-RPR011); exits non-zero on
# any non-baselined finding or dead waiver.  The second invocation runs
# the whole-program transactional rules over the test helpers that
# mutate engine state.  See docs/STATIC_ANALYSIS.md.
lint:
	PYTHONPATH=src python -m repro.analysis src benchmarks examples \
		--check-baseline --cache .analysis-cache.json
	PYTHONPATH=src python -m repro.analysis tests --no-baseline \
		--rules RPR009,RPR010,RPR011 --exclude tests/analysis/fixtures \
		--cache .analysis-tests-cache.json

# What CI runs: the analyzer, then the tier-1 suite.  (The benchmark
# regression gate is its own target so a slow machine can skip it.)
ci: lint
	PYTHONPATH=src python -m pytest -x -q

# Full update hot-path sweep (benchmarks/ holds scripts, not pytest
# benchmarks; see benchmarks/README if unsure which one you want).
bench:
	PYTHONPATH=src python benchmarks/bench_update_hotpath.py --out BENCH_updates.json

# The 1k smoke configuration the CI gate compares against its baseline.
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_update_hotpath.py \
		--sizes 1000 --ops 45 --out BENCH_smoke.json

# CI regression gate: calibrated medians within +/-30%, ledger counters
# exact.  See docs/OBSERVABILITY.md for how to read a failure.
bench-gate: bench-smoke
	PYTHONPATH=src python benchmarks/bench_gate.py BENCH_smoke.json \
		benchmarks/baseline_smoke.json

# Seeded fault-injection matrix (scheme x site x seed): every aborted
# op must roll back byte-identically and the resumed run must match a
# fault-free oracle.  Failing cells' plans land in CHAOS_failures.json.
# See docs/ROBUSTNESS.md.
chaos:
	PYTHONPATH=src python benchmarks/chaos_matrix.py --out CHAOS_failures.json

# Crash-recovery matrix (scheme x WAL site x seed): kill the process at
# every durability site, recover from the WAL directory alone, and
# require equality with the committed-prefix oracle.  The recovery tier
# additionally heals each crash *in place* (writer.recover, including a
# second crash during recovery) and replays acked request_ids through
# the dedup table.  Failing cells' plans land in CRASH_failures.json /
# RECOVERY_failures.json.  See docs/ROBUSTNESS.md.
crash:
	PYTHONPATH=src python benchmarks/crash_matrix.py \
		--out CRASH_failures.json --recovery-out RECOVERY_failures.json

# Document-service throughput bench: 1/8/64 simulated clients, 70/30
# write/read mix, group commit vs fsync-per-commit.  Writes
# BENCH_service.json and gates on it: amortized wal.fsyncs/commit must
# stay below 1 at >= 8 clients with group commit on, every snapshot
# read must see a committed version, and the storm must leave zero
# integrity violations.  The second invocation is the chaos lane: a
# wal.fsync crash armed mid-storm, idempotent clients retrying through
# the outage, self-healing gated on exact node accounting.  See
# DESIGN.md section 11 and docs/ROBUSTNESS.md.
serve-bench:
	PYTHONPATH=src python benchmarks/bench_service.py \
		--clients 1,8,64 --ops 40 --out BENCH_service.json
	PYTHONPATH=src python benchmarks/bench_service.py \
		--fault-lane --ops 30 --out BENCH_service_faults.json

# Self-test of the repo benchmark (BENCHMARK.json, perfbench/): tiny
# untraced and traced runs of every workload must pass its correctness
# gate and emit every declared metric, and a run with a dropped op must
# fail.  Takes about two minutes.  See perfbench/README.md.
perfbench-selftest:
	python3 perfbench/selftest.py

# Regenerate the checked-in baseline after an *intentional* change to
# the update path's work profile; justify the refresh in the commit.
bench-baseline: bench-smoke
	PYTHONPATH=src python benchmarks/bench_gate.py BENCH_smoke.json \
		benchmarks/baseline_smoke.json --update

experiments:
	python -m repro.bench

experiments-full:
	python -m repro.bench --full

examples:
	python examples/quickstart.py
	python examples/order_maintenance.py
	python examples/dynamic_editor.py
	python examples/persistent_store.py
	python examples/relational_hosting.py
