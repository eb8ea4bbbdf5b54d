# Developer entry points.  The repo is pure-Python (src layout); nothing
# needs building — targets just wire up PYTHONPATH consistently.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-baseline bench-strategies bench-jmeasure \
	bench-streaming bench-service bench-store bench-cluster \
	bench-saturation bench-gate service-smoke chaos-smoke \
	saturation-smoke perfbench-smoke design-size lint

## tier-1 suite (tests only; benchmarks are opt-in via `make bench`)
test:
	$(PYTHON) -m pytest tests -x -q

## full benchmark suite with comparison columns
bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-columns=mean,ops

## record the entropy-engine baseline JSON (see docs/performance.md);
## per-round timings are dropped, the gate reads only the stats
bench-baseline:
	$(PYTHON) -m pytest benchmarks/test_bench_entropy_engine.py -q \
		--benchmark-json=BENCH_entropy_engine.json
	$(PYTHON) -c "import json; p = 'BENCH_entropy_engine.json'; \
		d = json.load(open(p)); \
		[b['stats'].pop('data', None) for b in d['benchmarks']]; \
		open(p, 'w').write(json.dumps(d, indent=4) + '\n')"

## compare the registered discovery strategies; appends a record to
## BENCH_discovery_strategies.json (see docs/architecture.md)
bench-strategies:
	REPRO_BENCH_RECORD=1 $(PYTHON) -m pytest benchmarks/test_bench_strategies.py -q -s \
		--benchmark-columns=mean,ops

## engine-backed evaluation layer vs the pinned legacy paths at
## N=1e4/1e5; appends a record to BENCH_jmeasure.json (see
## docs/performance.md)
bench-jmeasure:
	REPRO_BENCH_RECORD=1 $(PYTHON) -m pytest benchmarks/test_bench_jmeasure.py -q -s \
		--benchmark-disable

## streaming ingestion + sketch mining vs the eager path, peak-RSS and
## wall-clock at N=1e5 *and* N=1e6; appends a record to
## BENCH_streaming.json (see docs/performance.md)
bench-streaming:
	REPRO_BENCH_RECORD=1 BENCH_STREAMING_FULL=1 $(PYTHON) -m pytest \
		benchmarks/test_bench_streaming.py -q -s --benchmark-disable

## serving layer: cold-vs-warm HTTP latency + concurrent throughput
## against an in-process server; appends a record to BENCH_service.json
## (see docs/service.md)
bench-service:
	REPRO_BENCH_RECORD=1 BENCH_SERVICE_FULL=1 $(PYTHON) -m pytest \
		benchmarks/test_bench_service.py -q -s --benchmark-disable

## persistent columnar snapshots vs CSV re-ingest + batch-of-8 vs 8
## singleton jobs over HTTP; appends a record to BENCH_store.json (see
## docs/performance.md)
bench-store:
	REPRO_BENCH_RECORD=1 BENCH_STORE_FULL=1 $(PYTHON) -m pytest \
		benchmarks/test_bench_store.py -q -s --benchmark-disable

## multi-process scale-out: uncached mixed-dataset throughput at
## worker_procs 1/2/4 vs single-process; appends the cluster sweep
## tier to BENCH_service.json (see docs/service.md)
bench-cluster:
	REPRO_BENCH_RECORD=1 BENCH_CLUSTER_SWEEP=1 $(PYTHON) -m pytest \
		benchmarks/test_bench_service.py -q -s -k cluster \
		--benchmark-disable

## boot a real `repro-ajd serve` subprocess and drive
## register -> mine -> decompose -> warm repeat over HTTP (the CI
## service-smoke job runs exactly this; see docs/service.md)
service-smoke:
	$(PYTHON) scripts/service_smoke.py

## boot a real server under a seeded fault plan (worker crash, torn
## spill, dropped responses) and assert the resilience invariants; the
## CI chaos-smoke job runs exactly this (see docs/robustness.md)
chaos-smoke:
	$(PYTHON) scripts/chaos_smoke.py

## ramp concurrent clients against a warm in-process service until the
## p99 crosses the threshold (short CI ramp, no baseline recording);
## the CI saturation-smoke step runs exactly this and uploads the
## per-level latency table (see docs/observability.md)
saturation-smoke:
	$(PYTHON) scripts/saturation_load.py --smoke

## full saturation ramp (1..32 clients); appends the per-level
## p50/p95/p99 table + knee point to BENCH_service.json (see
## docs/observability.md)
bench-saturation:
	$(PYTHON) scripts/saturation_load.py --record

## benchmark-regression gate: re-run smoke benches and compare against
## the committed BENCH_*.json baselines (>2x degradation fails); the CI
## bench-gate job runs exactly this (see docs/ci.md)
bench-gate:
	$(PYTHON) benchmarks/check_regression.py

## run every workload of the repo benchmark (perfbench/, declared in
## BENCHMARK.json) for 2 s at seed 7; run.py exits non-zero unless all
## of a workload's output checks pass, and so does this target (the CI
## tier-1 job runs exactly this)
perfbench-smoke:
	for workload in mine_cold serve_warm serve_miss serve_append; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 7 \
			--seconds 2 || exit 1; \
	done

## print the design-size counters tracked in ROADMAP.md as JSON
## (src/ and service/ lines, CLI add_argument calls, ServiceConfig
## fields); reports only, gates nothing (see docs/ci.md)
design-size:
	$(PYTHON) scripts/design_size.py

## byte-compile + import smoke check (no third-party linter is vendored
## in the runtime image; swap in ruff/flake8 here when available)
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples scripts
	$(PYTHON) -c "import repro, repro.info, repro.relations, repro.discovery, repro.service, repro.cli, repro.service.cluster"
