PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Port the smoke target's remote-backend leg listens on (localhost only).
SMOKE_PORT ?= 7351

# The paper-experiment entry points `make smoke` runs (python -m repro.experiments.<name>).
EXPERIMENT_DRIVERS := figure2 figure6 figure7 table1 scaling clock_rounds \
    baseline_comparison ablation_increment ablation_reserve

# The packages `make devmode` runs under the interpreter's dev mode.
DEVMODE_TESTS := tests/core tests/cluster tests/market tests/simulation tests/analysis

.PHONY: test doctest bench bench-smoke smoke chaos equivalence devmode golden check

## tier-1: full unit/property/integration suite plus quick benchmarks
test:
	$(PYTHON) -m pytest -x -q

## run every docstring example in the documented packages
doctest:
	$(PYTHON) -m pytest --doctest-modules src/repro/core src/repro/bidlang src/repro/cluster src/repro/market src/repro/simulation src/repro/results src/repro/mechanisms src/repro/exec src/repro/agents src/repro/analysis src/repro/cli.py -q

## paper-scale benchmarks (regenerates the paper's tables/figures) and
## records the headline timings into the BENCH_*.json trajectories (a plain
## pytest run records nothing)
bench:
	REPRO_BENCH_RECORD=1 $(PYTHON) -m pytest benchmarks -q

## reduced-scale benchmark smoke check
bench-smoke:
	REPRO_BENCH_SCALE=test $(PYTHON) -m pytest benchmarks -q

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
## non-stress catalog preset — engine drift fails the build here, not just
## in the benchmarks
equivalence:
	$(PYTHON) -m pytest tests/core/test_engine_equivalence.py -q

## the auction core, cluster, market, simulation and analysis suites under
## `python -X dev` (extra runtime checks, every warning shown) with an
## unclosed file or socket (ResourceWarning) turned into an error
devmode:
	$(PYTHON) -X dev -W error::ResourceWarning -m pytest -q $(DEVMODE_TESTS)

## rewrite tests/golden/digests.json: one sha256 per pinned canonical report
## (the only writer of that file; tier-1 checks every digest)
golden:
	$(PYTHON) tests/golden/golden.py

## everything CI runs
check: test devmode doctest chaos equivalence smoke
