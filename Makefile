# Convenience targets mirroring what CI runs (.github/workflows/ci.yml).
#
#   make install     editable install with dev extras (ruff, pytest, ...)
#   make lint        ruff over the whole repo
#   make test        the tier-1 test suite
#   make coverage    tier-1 suite under pytest-cov (term + coverage.xml)
#   make bench       the paper's tables, figures and ablations at the tiny preset
#   make explore     short schedule-exploration smoke of both workloads
#   make process-smoke    backend-parity and transport suites on the process backend
#   make async-smoke      backend-parity and awaitable-API suites on the async backend
#   make hybrid-smoke     parity + lifecycle suites on the process+async backend
#                         and the fan-in example
#   make shard-smoke      sharding suite on the process/async backends + the
#                         sharded CLI example
#   make failover-smoke   worker-kill recovery suite, a 10 s cut of the journal
#                         soak + fuzzed live-resharding pass
#   make soak             two minutes of command-stream traffic on process: flat
#                         RSS and descriptors, bounded journal, sub-second recovery
#   make serve-smoke      gateway suite on the process and hybrid backends and a
#                         one-second CLI serve
#   make ledger-smoke     the ledger's own tests, including a smoke pass of all
#                         four BENCHMARK.json workloads (~50 s)
#   make pairs WORKLOAD=qs_command_stream PAIRS=10
#                         alternating parent/change ledger passes of one workload,
#                         judged by ledger/compare.py (PARENT=HEAD by default)
#   make loc              lines of src/ and benchmarks/ (ROADMAP tracks them next
#                         to the perf numbers)

PYTHON ?= python

.PHONY: install lint test coverage bench explore \
	process-smoke async-smoke hybrid-smoke shard-smoke failover-smoke \
	serve-smoke ledger-smoke pairs soak loc clean

install:
	$(PYTHON) -m pip install -e .[dev]

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

test:
	$(PYTHON) -m pytest -x -q

coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term --cov-report=xml:coverage.xml

# every kept script under benchmarks/ that reproduces a paper table, figure
# or ablation (mirrors CI bench-smoke); performance claims live in the ledger
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q --benchmark-disable-gc

process-smoke:
	REPRO_BACKEND=process $(PYTHON) -m pytest -q tests/test_backends.py \
		tests/test_process_backend.py tests/test_socket_queue.py \
		tests/test_wire_queue.py tests/test_wire_properties.py

async-smoke:
	REPRO_BACKEND=async $(PYTHON) -m pytest -q tests/test_backends.py \
		tests/test_async_backend.py tests/test_client_lifecycle.py
	REPRO_BACKEND=async:2 $(PYTHON) -m pytest -q tests/test_backends.py
	$(PYTHON) examples/async_fan_in.py --clients 500 --handlers 2

# process+async end to end (mirrors CI hybrid-smoke): parity, coroutine-client
# and lifecycle suites under a process+async spec and the fan-in example with
# coroutine clients against process workers
hybrid-smoke:
	REPRO_BACKEND=process+async:2:2 $(PYTHON) -m pytest -q tests/test_backends.py \
		tests/test_hybrid_backend.py tests/test_client_lifecycle.py \
		tests/test_wire_queue.py tests/test_process_backend.py
	$(PYTHON) examples/async_fan_in.py --backend process+async:2:2 --clients 500 --handlers 2

# the sharding suite across the deployment backends (mirrors CI shard-smoke)
# and the sharded CLI example
shard-smoke:
	REPRO_BACKEND=process $(PYTHON) -m pytest -q tests/test_shard.py tests/test_backends.py
	REPRO_BACKEND=async $(PYTHON) -m pytest -q tests/test_shard.py
	$(PYTHON) -m repro --backend process run sharded-bank --shards 4 --clients 3 --iterations 10
	$(PYTHON) -m repro --backend async run sharded-bank --shards 4 --clients 3 --iterations 10

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
# coroutine connections) and the CLI serving for one second, as the ledger
# starts it
serve-smoke:
	REPRO_BACKEND=process $(PYTHON) -m pytest -q tests/test_serve.py
	REPRO_BACKEND=process+async $(PYTHON) -m pytest -q tests/test_serve.py
	$(PYTHON) -m repro --backend process+async serve --port 0 --shards 2 --duration 1

# the performance ledger's own suite (mirrors CI ledger-smoke): statistics,
# comparison and traffic units plus one smoke pass of every workload
ledger-smoke:
	$(PYTHON) -m pytest ledger/tests -q

# how a performance claim is measured: N alternating passes of the parent
# revision and this working tree on one BENCHMARK.json workload (26 s each)
WORKLOAD ?= qs_command_stream
PAIRS ?= 10
PARENT ?= HEAD
pairs:
	$(PYTHON) benchmarks/ledger_pairs.py --workload $(WORKLOAD) --pairs $(PAIRS) --parent $(PARENT)

# minutes, not seconds, so not tier-1: the process backend must stay bounded in
# memory, descriptors, journal size and recovery time (see the script's docstring)
soak:
	$(PYTHON) benchmarks/soak_journal.py

# the sizes ROADMAP asks to be tracked next to the perf numbers
loc:
	@for dir in src benchmarks; do \
		printf '%-12s%s\n' $$dir/ "$$(find $$dir -name '*.py' | xargs cat | wc -l)"; done

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
