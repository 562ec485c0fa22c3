"""Golden digests: one sha256 per canonical single-run report and per pinned stdout.

The reports every PR must keep byte for byte are pinned here as digests,
so "same bytes" is a tier-1 check rather than a scratch script.  Each run is
one catalog preset under one mechanism at one seed, reported as
``SweepReport(results=(run,)).to_json()``.  Beside each whole-report digest
the file keeps a short digest of every report key, so a mismatch can name
the first key that moved.

The same file pins two kinds of program output: the stdout of every
paper experiment (``python -m repro.experiments.<name>``), and the canonical
``--json`` report of ``python -m repro tournament smoke-tournament --workers
1 --no-store``.  Each is kept as a whole-output digest plus a short digest of
every line, so a mismatch can name the first line that moved.  The
``scaling`` experiment's ``seconds`` column and fitted exponents are
wall-clock readings; they are masked before hashing.

It also pins clock-auction round traces, which the reports summarise
only as final prices and round counts.  Each pinned auction is kept as one
sha256 over its convergence flag, every round's prices, excess demand and
active-bidder count (and per-bid demands, when recorded) and the cleared
round's demand matrix, plus a short digest of every round, so a mismatch
can name the auction and the first round that moved.  ``make equivalence``
proves the scalar engine's traces equal the batch engine's within a commit,
so these pin both engines across commits.

The bits depend on the platform as well as the code (a BLAS kernel may round
a product differently), so the Python version, NumPy version and BLAS build
are stored beside the digests and reported on a mismatch.

Rewrite the file with ``make golden`` (``python tests/golden/golden.py``), and
only when a change is meant to move a report, output or trace; list each
changed entry and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import platform
import pkgutil
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Seeds of the default-sweep runs.
SEEDS = (0, 7)
#: Stress presets run at this population, for one auction, market only.
STRESS_PRESETS = ("10k-bidder-stress", "100k-bidder-stress")
STRESS_TEAMS = 200
STRESS_AUCTIONS = 1
#: Hex digits kept of each per-key digest (enough to locate a change).
KEY_DIGEST_CHARS = 16
#: Hex digits kept of each per-line digest of a pinned output.
LINE_DIGEST_CHARS = 8
#: The tournament whose canonical report is pinned, and the command that prints it.
TOURNAMENT = "smoke-tournament"
TOURNAMENT_ARGV = ("tournament", TOURNAMENT, "--workers", "1", "--no-store", "--json")
#: The stress preset whose auction traces are pinned (at STRESS_TEAMS, STRESS_AUCTIONS).
TRACE_STRESS_PRESET = "10k-bidder-stress"
#: Hex digits kept of each per-round digest of a pinned trace.
ROUND_DIGEST_CHARS = 8
#: Wall-clock readings masked out of an output before hashing, by output key.
MASKS = {
    "experiment/scaling": (
        # The seconds column: the third field of each row of the scaling table.
        (re.compile(r"^(\s*\d+\s+\d+\s+)\S+", re.M), r"\1<seconds>"),
        (re.compile(r"^(fitted exponent in \w+:\s+)\S+$", re.M), r"\1<exponent>"),
    ),
}


@dataclass(frozen=True)
class GoldenRun:
    """One pinned run: a preset under a mechanism at a seed."""

    preset: str
    mechanism: str
    seed: int
    #: Replaces the preset's population size when set.
    teams: int | None = None
    #: Replaces the preset's auction count when set.
    auctions: int | None = None

    @property
    def key(self) -> str:
        return f"{self.preset}/{self.mechanism}/{self.seed}"

    def spec(self):
        from repro.simulation.catalog import get_scenario

        spec = get_scenario(self.preset).with_overrides(
            seed=self.seed, mechanism=self.mechanism, auctions=self.auctions
        )
        if self.teams is not None:
            population = replace(spec.config.population, team_count=self.teams)
            spec = replace(spec, config=replace(spec.config, population=population))
        return spec

    def report(self) -> str:
        """The run's canonical single-run report."""
        from repro.simulation.runner import SweepReport, run_scenario

        return SweepReport(results=(run_scenario(self.spec()),)).to_json()


def golden_runs() -> list[GoldenRun]:
    """The pinned runs: default sweep x every mechanism x seeds, then stress."""
    from repro.mechanisms import mechanism_names
    from repro.simulation.catalog import default_sweep_names

    runs = [
        GoldenRun(preset, mechanism, seed)
        for preset in default_sweep_names()
        for mechanism in mechanism_names()
        for seed in SEEDS
    ]
    runs += [
        GoldenRun(preset, "market", seed, teams=STRESS_TEAMS, auctions=STRESS_AUCTIONS)
        for preset in STRESS_PRESETS
        for seed in SEEDS
    ]
    return runs


@dataclass(frozen=True)
class GoldenOutput:
    """One pinned stdout: a paper experiment's, or the smoke tournament's report."""

    #: ``experiment`` (``python -m repro.experiments.<name>``) or ``tournament``.
    kind: str
    name: str

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.name}"

    def text(self) -> str:
        """The program's stdout, wall-clock readings masked."""
        from repro.cli import main

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            if self.kind == "experiment":
                importlib.import_module(f"repro.experiments.{self.name}").main()
            elif main(list(TOURNAMENT_ARGV)) != 0:
                raise RuntimeError(f"`repro {' '.join(TOURNAMENT_ARGV)}` failed")
        text = stdout.getvalue()
        for pattern, mask in MASKS.get(self.key, ()):
            text = pattern.sub(mask, text)
        return text


def golden_outputs() -> list[GoldenOutput]:
    """The pinned outputs: every paper experiment, then the smoke tournament."""
    import repro.experiments

    names = sorted(module.name for module in pkgutil.iter_modules(repro.experiments.__path__))
    return [GoldenOutput("experiment", name) for name in names] + [
        GoldenOutput("tournament", TOURNAMENT)
    ]


@dataclass(frozen=True)
class GoldenTrace:
    """The clock-auction round traces of one pinned run.

    A ``kind`` of ``economy`` runs a catalog preset's market economy at a seed
    (``teams`` and ``auctions`` override the preset's sizes) and pins each
    binding auction's trace.  ``clock_rounds`` re-runs the Figure 1 reference
    auction of :mod:`repro.experiments.clock_rounds` at a seed with
    ``AuctionConfig(record_bidder_demands=True)``, so every round's per-bid
    demand matrix is pinned too.
    """

    kind: str
    preset: str
    seed: int
    teams: int | None = None
    auctions: int | None = None

    @property
    def key(self) -> str:
        return f"{self.preset}/{self.seed}"

    def outcomes(self) -> list:
        """The run's auction outcomes, in auction order."""
        if self.kind == "clock_rounds":
            from repro.experiments.clock_rounds import run_clock_rounds

            return [run_clock_rounds(seed=self.seed, record_bidder_demands=True).outcome]
        from repro.simulation.economy import MarketEconomySimulation

        spec = GoldenRun(self.preset, "market", self.seed, self.teams, self.auctions).spec()
        history = MarketEconomySimulation.from_spec(spec.build(), spec).run(spec.auctions)
        return [period.record.result.outcome for period in history.periods]


def golden_traces() -> list[GoldenTrace]:
    """The pinned traces: the reference economy, a stress epoch, the Figure 1 auction."""
    traces = [GoldenTrace("economy", "paper-reference", seed) for seed in SEEDS]
    traces += [
        GoldenTrace("economy", TRACE_STRESS_PRESET, seed, STRESS_TEAMS, STRESS_AUCTIONS)
        for seed in SEEDS
    ]
    traces.append(GoldenTrace("clock_rounds", "clock_rounds", 0))
    return traces


def _array_bytes(array) -> bytes:
    """An array's shape and its float64 values, little-endian, as bytes."""
    import numpy

    return repr(array.shape).encode() + numpy.ascontiguousarray(array, dtype="<f8").tobytes()


def _round_bytes(auction_round) -> bytes:
    parts = [
        repr((auction_round.round_index, auction_round.active_bidders)).encode(),
        _array_bytes(auction_round.prices),
        _array_bytes(auction_round.excess_demand),
    ]
    if auction_round.bidder_demands is not None:
        parts.append(_array_bytes(auction_round.bidder_demands))
    return b"".join(parts)


def trace_record(outcome) -> dict[str, object]:
    """One auction's trace digest and a short digest per round."""
    whole = hashlib.sha256(repr(outcome.converged).encode())
    rounds = []
    for auction_round in outcome.rounds:
        data = _round_bytes(auction_round)
        whole.update(data)
        rounds.append(hashlib.sha256(data).hexdigest()[:ROUND_DIGEST_CHARS])
    whole.update(_array_bytes(outcome.final_demands))
    return {"sha256": whole.hexdigest(), "rounds": rounds}


def platform_facts() -> dict[str, str]:
    """What besides the code decides the bits: interpreter, NumPy, BLAS."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def key_digests(report_json: str) -> dict[str, str]:
    """A short digest per report key, in the report's sorted key order.

    Keys are the run's own entries (``scenarios.<key>``) and the aggregate's
    (``aggregate.<key>``).
    """
    report = json.loads(report_json)
    entries: dict[str, object] = {}
    for scenario in report["scenarios"]:
        for key, value in scenario.items():
            entries[f"scenarios.{key}"] = value
    for key, value in report["aggregate"].items():
        entries[f"aggregate.{key}"] = value
    return {
        key: sha256(json.dumps(value, sort_keys=True))[:KEY_DIGEST_CHARS]
        for key, value in sorted(entries.items())
    }


def record(report_json: str) -> dict[str, object]:
    return {"sha256": sha256(report_json), "keys": key_digests(report_json)}


def line_digests(text: str) -> list[str]:
    """A short digest per line of ``text``."""
    return [sha256(line)[:LINE_DIGEST_CHARS] for line in text.splitlines()]


def record_output(text: str) -> dict[str, object]:
    return {"sha256": sha256(text), "lines": line_digests(text)}


def load() -> dict[str, object]:
    return json.loads(DIGESTS_PATH.read_text())


def platform_note(recorded: dict[str, str]) -> str:
    """How the running platform differs from the ``recorded`` one, for a failure message."""
    drift = [
        f"{name}: recorded {recorded.get(name)!r}, running {value!r}"
        for name, value in platform_facts().items()
        if recorded.get(name) != value
    ]
    if drift:
        return "; platform differs from the recorded one: " + "; ".join(drift)
    return "; platform matches the recorded one"


def write() -> int:
    """Recompute every pinned run, output and trace and rewrite the digest file."""
    runs, outputs, traces = golden_runs(), golden_outputs(), golden_traces()
    payload = {
        "platform": platform_facts(),
        "reports": {run.key: record(run.report()) for run in runs},
        "outputs": {output.key: record_output(output.text()) for output in outputs},
        "traces": {
            trace.key: [trace_record(outcome) for outcome in trace.outcomes()]
            for trace in traces
        },
    }
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    auctions = sum(len(entry) for entry in payload["traces"].values())
    print(
        f"wrote {len(runs)} report digests, {len(outputs)} output digests and "
        f"{auctions} auction-trace digests to {DIGESTS_PATH}"
    )
    return 0


if __name__ == "__main__":
    src = Path(__file__).resolve().parents[2] / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    sys.exit(write())
