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

The bits depend on the platform as well as the code (a BLAS kernel may round
a product differently), so the Python version, NumPy version and BLAS build
are stored beside the digests and reported on a mismatch.

Rewrite the file with ``make golden`` (``python tests/golden/golden.py``), and
only when a change is meant to move a report; list each changed entry and
the reason in CHANGES.md.
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


def write() -> int:
    """Recompute every pinned run and output and rewrite the digest file."""
    runs, outputs = golden_runs(), golden_outputs()
    payload = {
        "platform": platform_facts(),
        "reports": {run.key: record(run.report()) for run in runs},
        "outputs": {output.key: record_output(output.text()) for output in outputs},
    }
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {len(runs)} report digests and {len(outputs)} output digests to {DIGESTS_PATH}"
    )
    return 0


if __name__ == "__main__":
    src = Path(__file__).resolve().parents[2] / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    sys.exit(write())
