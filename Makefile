PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Port the smoke target's remote-backend leg listens on (localhost only).
SMOKE_PORT ?= 7351

# The paper-experiment entry points `make smoke` runs (python -m repro.experiments.<name>).
EXPERIMENT_DRIVERS := figure2 figure6 figure7 table1 scaling clock_rounds \
    baseline_comparison ablation_increment ablation_reserve

# The packages `make devmode` runs under the interpreter's dev mode.
DEVMODE_TESTS := tests/core tests/cluster tests/market tests/simulation tests/analysis \
    tests/exec tests/agents tests/baselines tests/mechanisms tests/property tests/bidlang

.PHONY: test doctest bench smoke chaos equivalence devmode golden check

## tier-1: the full unit/property/integration suite, paper-shape checks included
test:
	$(PYTHON) -m pytest -x -q

## run every docstring example in the documented packages
doctest:
	$(PYTHON) -m pytest --doctest-modules src/repro/core src/repro/bidlang src/repro/cluster src/repro/market src/repro/simulation src/repro/results src/repro/mechanisms src/repro/exec src/repro/agents src/repro/analysis src/repro/cli.py -q

## the repository benchmark (every workload of BENCHMARK.json, see
## bench/README.md), then the scalar-vs-batch round timer, which appends one
## entry to BENCH_batch_engine.json (see docs/benchmarks.md)
bench:
	$(PYTHON) bench/run.py --all --seed 2009
	$(PYTHON) benchmarks/batch_engine.py

## scenario CLI, example and paper-experiment smoke runs
## (docs, examples and experiments can't rot: every `examples/*.py` script
## and every `repro.experiments` module's `main()` runs once);
## the runs persist into the result store — market and one baseline, so the
## mechanism comparison verbs have two mechanisms to diff — and `results
## show` / `compare-mechanisms` read it back (CI uploads the store file as a
## workflow artifact and gates the next PR against it).  The final leg runs
## the same sweep through the distributed backend (2 localhost workers, one
## deliberately streaming jobs to the coordinator over TCP) and through the
## process pool, and diffs the two canonical reports byte for byte — the
## execution-fabric determinism contract, checked on every CI run.  A
## 2-generation smoke tournament exercises the evolving-bidder pipeline
## (traits -> roster -> generations) end to end through the CLI.
smoke:
	$(PYTHON) -m pytest tests/core/test_engine_equivalence.py -q \
	    -k "smoke or Auction or RoundZero or Convergence"
	$(PYTHON) -m repro run paper-reference --workers 1
	$(PYTHON) -m repro tournament smoke-tournament --workers 1 --no-store
	$(PYTHON) -m repro run paper-reference --workers 1 --mechanism fixed-price
	$(PYTHON) -m repro results list
	$(PYTHON) -m repro results show paper-reference --mechanism market
	$(PYTHON) -m repro compare-mechanisms paper-reference
	for example in examples/*.py; do \
	    $(PYTHON) $$example > /dev/null || exit 1; \
	done
	for driver in $(EXPERIMENT_DRIVERS); do \
	    $(PYTHON) -m repro.experiments.$$driver > /dev/null || exit 1; \
	done
	$(PYTHON) -m repro worker --connect 127.0.0.1:$(SMOKE_PORT) --id smoke-w1 --retry 60 &
	$(PYTHON) -m repro worker --connect 127.0.0.1:$(SMOKE_PORT) --id smoke-w2 --retry 60 &
	$(PYTHON) -m repro sweep smoke --mechanism all --backend remote \
	    --bind 127.0.0.1:$(SMOKE_PORT) --workers 2 --no-store --json \
	    --out smoke-report-remote.json > /dev/null
	$(PYTHON) -m repro sweep smoke --mechanism all --backend process --no-store \
	    --json --out smoke-report-process.json > /dev/null
	cmp smoke-report-remote.json smoke-report-process.json
	rm -f smoke-report-remote.json smoke-report-process.json

## deterministic fault-injection suite for the persistent worker fleet:
## scripted kills / dropped heartbeats / delayed and duplicated frames
## (seeded, replayable), the job-queue state machine, and the control
## plane + HMAC handshake (see docs/testing.md)
chaos:
	$(PYTHON) -m pytest tests/exec/test_chaos.py tests/exec/test_queue.py \
	    tests/exec/test_control.py tests/property/test_property_queue.py -q

## differential-equivalence harness: the scalar and batch demand engines
## must produce byte-identical canonical reports and round traces on every
## non-stress catalog preset, and every pinned clock auction must keep the
## round trace digested in tests/golden/digests.json — engine drift and trace
## drift across commits fail the build here, not just in the benchmarks
equivalence:
	$(PYTHON) -m pytest tests/core/test_engine_equivalence.py tests/golden/test_golden_traces.py -q

## the auction core, cluster, market, simulation, analysis, execution, agent,
## baseline, mechanism, property and bid-language suites under `python -X dev`
## (extra runtime checks, every warning shown)
## with an unclosed file or socket turned into an error: raised directly it is
## a ResourceWarning, and collected by the garbage collector pytest reports it
## as a PytestUnraisableExceptionWarning, so both are errors
devmode:
	$(PYTHON) -X dev -W error::ResourceWarning -m pytest -q \
	    -W error::pytest.PytestUnraisableExceptionWarning $(DEVMODE_TESTS)

## rewrite tests/golden/digests.json: one sha256 per pinned canonical report,
## per pinned experiment or tournament stdout and per pinned clock-auction round
## trace (the only writer of that file; tier-1 checks every digest)
golden:
	$(PYTHON) tests/golden/golden.py

## everything CI runs
check: test devmode doctest chaos equivalence smoke
