# Convenience targets mirroring what CI runs (.github/workflows/ci.yml).
#
#   make install     editable install with dev extras (ruff, pytest, ...)
#   make lint        ruff over the whole repo
#   make test        the tier-1 test suite
#   make coverage    tier-1 suite under pytest-cov (term + coverage.xml)
#   make bench       micro-benchmarks at the tiny preset
#   make bench-backends   threads/sim/process/async + batched-vs-not comparison JSON
#   make bench-gate  smoke benchmarks gated against benchmarks/thresholds.json
#   make explore     short schedule-exploration smoke of both workloads
#   make process-smoke    backend-parity and transport suites on the process backend
#   make async-smoke      backend-parity and awaitable-API suites on the async backend
#   make hybrid-smoke     parity + lifecycle suites on the process+async backend,
#                         fan-in example, and a smoke bench artifact
#   make shard-smoke      sharding suite on the process/async backends + smoke bench
#   make failover-smoke   worker-kill recovery suite, a 10 s cut of the journal
#                         soak + fuzzed live-resharding pass
#   make soak             two minutes of command-stream traffic on process: flat
#                         RSS and descriptors, bounded journal, sub-second recovery
#   make serve-smoke      gateway suite on the process and hybrid backends, a CLI
#                         load run with its oracles, and a smoke serve_latency
#                         artifact
#   make ledger-smoke     the ledger's own tests, including a smoke pass of all
#                         four BENCHMARK.json workloads (~50 s)
#   make loc              lines of src/ (ROADMAP tracks it next to the perf numbers)

PYTHON ?= python

.PHONY: install lint test coverage bench bench-backends bench-gate explore \
	process-smoke async-smoke hybrid-smoke shard-smoke failover-smoke \
	serve-smoke ledger-smoke soak loc clean

install:
	$(PYTHON) -m pip install -e .[dev]

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

test:
	$(PYTHON) -m pytest -x -q

coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term --cov-report=xml:coverage.xml

bench:
	$(PYTHON) -m pytest benchmarks/bench_micro.py -q --benchmark-disable-gc

bench-backends:
	$(PYTHON) benchmarks/bench_backends.py

# the CI perf-regression gate: fresh smoke measurement, then compare the
# recorded speedups (batched drain, process responsiveness, async fan-in)
# against the floors in benchmarks/thresholds.json
bench-gate:
	$(PYTHON) benchmarks/bench_backends.py --smoke --out BENCH_gate_smoke.json
	$(PYTHON) benchmarks/bench_gate.py BENCH_gate_smoke.json

process-smoke:
	REPRO_BACKEND=process $(PYTHON) -m pytest -q tests/test_backends.py \
		tests/test_process_backend.py tests/test_socket_queue.py \
		tests/test_wire_queue.py tests/test_wire_properties.py

async-smoke:
	REPRO_BACKEND=async $(PYTHON) -m pytest -q tests/test_backends.py \
		tests/test_async_backend.py tests/test_client_lifecycle.py
	REPRO_BACKEND=async:2 $(PYTHON) -m pytest -q tests/test_backends.py
	$(PYTHON) examples/async_fan_in.py --clients 500 --handlers 2

# the hybrid backend end to end (mirrors CI hybrid-smoke): parity, dedicated
# and lifecycle suites under the composite spec, the fan-in example with
# coroutine clients against process workers, and a smoke-sized measurement
# carrying the hybrid_fan_in_compute series
hybrid-smoke:
	REPRO_BACKEND=process+async:2:2 $(PYTHON) -m pytest -q tests/test_backends.py \
		tests/test_hybrid_backend.py tests/test_client_lifecycle.py
	$(PYTHON) examples/async_fan_in.py --backend process+async:2:2 --clients 500 --handlers 2
	$(PYTHON) benchmarks/bench_backends.py --smoke --out BENCH_hybrid_smoke.json

# the sharding suite across the deployment backends (mirrors CI shard-smoke),
# the sharded CLI example, and a smoke-sized shard_scaling measurement
shard-smoke:
	REPRO_BACKEND=process $(PYTHON) -m pytest -q tests/test_shard.py tests/test_backends.py
	REPRO_BACKEND=async $(PYTHON) -m pytest -q tests/test_shard.py
	$(PYTHON) -m repro --backend process run sharded-bank --shards 4 --clients 3 --iterations 10
	$(PYTHON) -m repro --backend async run sharded-bank --shards 4 --clients 3 --iterations 10
	$(PYTHON) benchmarks/bench_backends.py --smoke --out BENCH_shard_smoke.json

# kill workers mid-workload and demand lossless completion (mirrors CI
# failover-smoke), soak the journal for 10 s, then fuzz the live-resharding
# protocol under the simulator
failover-smoke:
	mkdir -p traces
	$(PYTHON) -m pytest -q tests/test_failover.py
	$(PYTHON) benchmarks/soak_journal.py --seconds 10
	$(PYTHON) -m repro explore resharding-bank --policy random --seeds 8 \
		--save-trace traces/resharding-bank.trace.json

# the HTTP gateway end to end (mirrors CI serve-smoke): the serve suite under
# both multi-core dispatch modes (process = executor, process+async = native
# coroutine connections), one CLI load run whose oracles must pass, and a
# smoke-sized serve_latency measurement
serve-smoke:
	REPRO_BACKEND=process $(PYTHON) -m pytest -q tests/test_serve.py
	REPRO_BACKEND=process+async $(PYTHON) -m pytest -q tests/test_serve.py
	$(PYTHON) -m repro --backend process+async serve --port 0 --shards 2 \
		--load --rate 150 --duration 1 --cases 16
	$(PYTHON) benchmarks/bench_serve.py --smoke --out BENCH_serve_smoke.json

# the performance ledger's own suite (mirrors CI ledger-smoke): statistics,
# comparison and traffic units plus one smoke pass of every workload
ledger-smoke:
	$(PYTHON) -m pytest ledger/tests -q

# minutes, not seconds, so not tier-1: the process backend must stay bounded in
# memory, descriptors, journal size and recovery time (see the script's docstring)
soak:
	$(PYTHON) benchmarks/soak_journal.py

# the size ROADMAP asks to be tracked next to the perf numbers
loc:
	@find src -name '*.py' | xargs cat | wc -l

# bank-transfers must stay clean on every schedule; the philosophers hunt is
# *expected* to find its seeded deadlock (exit 1 = "problem found") and the
# saved trace must replay to the identical failure
explore:
	mkdir -p traces
	$(PYTHON) -m repro explore bank-transfers --policy random --seeds 10 \
		--save-trace traces/bank-transfers.trace.json
	$(PYTHON) -m repro explore dining-philosophers --policy random --seeds 50 \
		--save-trace traces/dining-philosophers.trace.json; test $$? -eq 1
	$(PYTHON) -m repro explore dining-philosophers \
		--replay traces/dining-philosophers.trace.json; test $$? -eq 1

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .ruff_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
