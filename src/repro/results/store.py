"""The persistent result store: sqlite, keyed by (scenario, seed, code_version, engine, mechanism).

One row per *run*.  A run is uniquely identified by the scenario it executed,
the replicate seed, the code version that produced it, the demand engine it
used, and the allocation mechanism that produced the outcome; recording the
same key twice replaces the earlier row (re-running an experiment under
unchanged code is a refresh, not a new observation).  Each run stores the
full canonical trajectory report (as JSON, for provenance), the scalar
metrics of :mod:`repro.results.metrics` (as rows, for querying), and two
provenance columns that nothing schedules from: the observed wall time and
the executing worker (``serial:<pid>``, ``process:<pid>``, or a remote
worker id).  Wall time and worker are deliberately *outside* the canonical
JSON, which must stay deterministic: where and how fast a run executed must
never change its bytes.

Schema::

    runs    (id, scenario, seed, code_version, engine, mechanism, auctions,
             recorded_at, wall_time, worker, result_json,
             UNIQUE (scenario, seed, code_version, engine, mechanism))
    metrics (run_id -> runs.id, metric, value,
             PRIMARY KEY (run_id, metric))

A store whose ``runs`` table predates the ``mechanism`` or ``worker``
column is refused on open with a :class:`ValueError` naming the file and
the missing columns; record into a new file instead.

``code_version`` defaults to the version of the working tree — ``git describe
--always --dirty`` where the package lives inside a git checkout, the package
version otherwise, and the ``REPRO_CODE_VERSION`` environment variable
overrides both (useful in CI, where the checkout may be shallow or absent).

Everything is standard library only; the store adds no runtime dependency.

>>> store = ResultStore(":memory:")
>>> len(store.runs())
0
>>> store.close()
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro import __version__
from repro.results.metrics import METRICS, run_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner stores results)
    from repro.simulation.runner import ScenarioRunResult

#: Environment variable that overrides the default store location.
DB_ENV = "REPRO_RESULTS_DB"

#: Environment variable that overrides code-version derivation.
CODE_VERSION_ENV = "REPRO_CODE_VERSION"

#: Default store filename (created in the working directory).
DEFAULT_DB_NAME = "repro_results.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id           INTEGER PRIMARY KEY,
    scenario     TEXT    NOT NULL,
    seed         INTEGER NOT NULL,
    code_version TEXT    NOT NULL,
    engine       TEXT    NOT NULL,
    mechanism    TEXT    NOT NULL DEFAULT 'market',
    auctions     INTEGER NOT NULL,
    recorded_at  TEXT    NOT NULL,
    wall_time    REAL,
    worker       TEXT,
    result_json  TEXT    NOT NULL,
    UNIQUE (scenario, seed, code_version, engine, mechanism)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    metric TEXT    NOT NULL,
    value  REAL    NOT NULL,
    PRIMARY KEY (run_id, metric)
);
CREATE INDEX IF NOT EXISTS idx_runs_scenario ON runs (scenario, code_version, engine, mechanism);
"""

#: Columns of ``runs`` that older stores lack: such a store is refused on open.
_REQUIRED_COLUMNS = ("mechanism", "worker")


def default_db_path() -> Path:
    """Where the CLI persists results: ``$REPRO_RESULTS_DB`` or ``./repro_results.sqlite``.

    >>> import os
    >>> os.environ[DB_ENV] = "/tmp/my-results.sqlite"
    >>> str(default_db_path())
    '/tmp/my-results.sqlite'
    >>> del os.environ[DB_ENV]
    """
    override = os.environ.get(DB_ENV)
    return Path(override) if override else Path(DEFAULT_DB_NAME)


def default_code_version() -> str:
    """The code version runs are recorded under when none is given explicitly.

    Resolution order: the ``REPRO_CODE_VERSION`` environment variable; ``git
    describe --always --dirty`` run in the checkout containing this package;
    the installed package version (``v0.1.0`` style) when neither applies.

    >>> import os
    >>> os.environ[CODE_VERSION_ENV] = "pr-demo"
    >>> default_code_version()
    'pr-demo'
    >>> del os.environ[CODE_VERSION_ENV]
    >>> isinstance(default_code_version(), str)
    True
    """
    override = os.environ.get(CODE_VERSION_ENV)
    if override:
        return override
    root = _git_root(Path(__file__).resolve().parent)
    if root is not None:
        try:
            described = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
            if described.returncode == 0 and described.stdout.strip():
                return described.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git binary
            pass
    return f"v{__version__}"


def _git_root(start: Path) -> Path | None:
    """The enclosing directory holding ``.git``, if this package lives in a checkout."""
    for candidate in (start, *start.parents):
        if (candidate / ".git").exists():
            return candidate
    return None


@dataclass(frozen=True)
class StoredRun:
    """One persisted run: its key, its scalar metrics, its full trajectory."""

    run_id: int
    scenario: str
    seed: int
    code_version: str
    engine: str
    mechanism: str
    auctions: int
    recorded_at: str
    #: Observed wall time in seconds (``None`` when the run recorded none).
    wall_time: float | None
    #: Execution lane that produced the run — ``serial:<pid>``,
    #: ``process:<pid>``, or a remote worker id (``None`` when unknown).
    worker: str | None
    #: Scalar metrics (see :mod:`repro.results.metrics`).
    metrics: dict[str, float]
    #: The full canonical per-run report, as recorded.
    result: dict[str, object]

    @property
    def key(self) -> tuple[str, int, str, str, str]:
        """The store's unique key for this run."""
        return (self.scenario, self.seed, self.code_version, self.engine, self.mechanism)


class ResultStore:
    """Sqlite-backed persistent store of scenario-run results.

    ``path`` may be a filesystem path (created on first use) or the sqlite
    ``":memory:"`` sentinel for an ephemeral store.  The store is safe to use
    as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str | Path | None = None):
        raw = default_db_path() if path is None else path
        #: The filesystem location, or ``None`` for an in-memory store.
        self.path: Path | None = None if str(raw) == ":memory:" else Path(raw)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(":memory:" if self.path is None else str(self.path))
        self._refuse_old_schema()
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def _refuse_old_schema(self) -> None:
        """Close and raise if an existing ``runs`` table lacks a current column."""
        columns = {row[1] for row in self._conn.execute("PRAGMA table_info(runs)")}
        missing = [name for name in _REQUIRED_COLUMNS if columns and name not in columns]
        if missing:
            self.close()
            raise ValueError(
                f"result store {self.path} predates the current schema: "
                f"its runs table lacks the {', '.join(missing)} column(s); "
                "record into a new store file"
            )

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing -----------------------------------------------------------------------
    def record(
        self, result: "ScenarioRunResult", *, code_version: str | None = None
    ) -> StoredRun:
        """Persist one finished run; same-key records replace earlier ones."""
        version = code_version if code_version is not None else default_code_version()
        metrics = run_metrics(result)
        recorded_at = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        wall_time = getattr(result, "wall_time_seconds", None)
        worker = getattr(result, "worker", None)
        result_dict = result.to_dict()
        payload = json.dumps(result_dict, sort_keys=True)
        self._conn.execute(
            """
            INSERT INTO runs (scenario, seed, code_version, engine, mechanism,
                              auctions, recorded_at, wall_time, worker, result_json)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            ON CONFLICT (scenario, seed, code_version, engine, mechanism) DO UPDATE SET
                auctions = excluded.auctions,
                recorded_at = excluded.recorded_at,
                wall_time = excluded.wall_time,
                worker = excluded.worker,
                result_json = excluded.result_json
            """,
            (
                result.scenario,
                result.seed,
                version,
                result.engine,
                result.mechanism,
                result.auctions,
                recorded_at,
                wall_time,
                worker,
                payload,
            ),
        )
        # lastrowid is unreliable on the upsert's UPDATE path: look the row up.
        run_id = self._conn.execute(
            """
            SELECT id FROM runs
            WHERE scenario = ? AND seed = ? AND code_version = ? AND engine = ?
              AND mechanism = ?
            """,
            (result.scenario, result.seed, version, result.engine, result.mechanism),
        ).fetchone()[0]
        self._conn.execute("DELETE FROM metrics WHERE run_id = ?", (run_id,))
        self._conn.executemany(
            "INSERT INTO metrics (run_id, metric, value) VALUES (?, ?, ?)",
            [(run_id, name, float(value)) for name, value in metrics.items()],
        )
        self._conn.commit()
        return StoredRun(
            run_id=run_id,
            scenario=result.scenario,
            seed=result.seed,
            code_version=version,
            engine=result.engine,
            mechanism=result.mechanism,
            auctions=result.auctions,
            recorded_at=recorded_at,
            wall_time=wall_time,
            worker=worker,
            metrics=metrics,
            result=result_dict,
        )

    # -- reading -----------------------------------------------------------------------
    def runs(
        self,
        *,
        scenario: str | None = None,
        code_version: str | None = None,
        engine: str | None = None,
        mechanism: str | None = None,
    ) -> list[StoredRun]:
        """Stored runs matching the given key fields, ordered by key."""
        clauses, params = _filters(
            scenario=scenario, code_version=code_version, engine=engine, mechanism=mechanism
        )
        rows = self._conn.execute(
            f"""
            SELECT id, scenario, seed, code_version, engine, mechanism, auctions,
                   recorded_at, wall_time, worker, result_json
            FROM runs {clauses}
            ORDER BY scenario, code_version, engine, mechanism, seed
            """,
            params,
        ).fetchall()
        return [self._hydrate(row) for row in rows]

    def mechanisms(
        self, *, scenario: str | None = None, code_version: str | None = None
    ) -> list[str]:
        """Distinct mechanism names present in the store, sorted."""
        clauses, params = _filters(scenario=scenario, code_version=code_version)
        rows = self._conn.execute(
            f"SELECT DISTINCT mechanism FROM runs {clauses} ORDER BY mechanism", params
        )
        return [row[0] for row in rows.fetchall()]

    def scenarios(self) -> list[str]:
        """Distinct scenario names present in the store, sorted."""
        rows = self._conn.execute("SELECT DISTINCT scenario FROM runs ORDER BY scenario")
        return [row[0] for row in rows.fetchall()]

    def code_versions(self, *, scenario: str | None = None) -> list[str]:
        """Distinct code versions, oldest first (by first recording).

        Ordered by the smallest row id per version, not by ``recorded_at``:
        row ids survive the upsert, so *refreshing* an old version's runs
        (re-recording the same keys) does not promote it to "latest" — which
        would silently flip the default baseline/candidate direction of
        ``results show`` / ``results compare``.
        """
        clauses, params = _filters(scenario=scenario)
        rows = self._conn.execute(
            f"""
            SELECT code_version
            FROM runs {clauses}
            GROUP BY code_version
            ORDER BY MIN(id)
            """,
            params,
        ).fetchall()
        return [row[0] for row in rows]

    def latest_code_version(self, *, scenario: str | None = None) -> str | None:
        """The most recently recorded code version (``None`` on an empty store)."""
        versions = self.code_versions(scenario=scenario)
        return versions[-1] if versions else None

    def replicate_metrics(
        self,
        scenario: str,
        *,
        code_version: str | None = None,
        engine: str | None = None,
        mechanism: str | None = None,
    ) -> dict[str, list[float]]:
        """Metric -> one value per stored replicate (ordered by seed).

        ``code_version=None`` selects the scenario's most recently recorded
        version, which is what ``results show`` displays by default.  Runs
        from different demand engines are never pooled: the engines produce
        bit-identical economies by design, so merging them would double-count
        seeds and understate the confidence intervals — when the selection
        spans several engines, ``engine`` must pick one.  Runs from different
        *mechanisms* are never pooled either, for the opposite reason: they
        are different economies entirely, and pooling them would average a
        market with a quota policy — when the selection spans several
        mechanisms, ``mechanism`` must pick one.
        """
        if code_version is None:
            code_version = self.latest_code_version(scenario=scenario)
        for column, value in (("engine", engine), ("mechanism", mechanism)):
            if value is not None:
                continue
            # The span check honours the *other* dimension's explicit filter:
            # runs of one mechanism recorded under a single engine must not be
            # rejected because a different mechanism used a different engine.
            clauses, params = _filters(
                scenario=scenario,
                code_version=code_version,
                engine=engine if column != "engine" else None,
                mechanism=mechanism if column != "mechanism" else None,
            )
            values = [
                row[0]
                for row in self._conn.execute(
                    f"SELECT DISTINCT {column} FROM runs {clauses} ORDER BY {column}",
                    params,
                )
            ]
            if len(values) > 1:
                raise ValueError(
                    f"stored runs of {scenario!r} under {code_version!r} span {column}s "
                    f"{', '.join(values)}; pass {column}=... to pick one"
                )
        # One JOIN over the metrics table: statistics only need the scalars,
        # not N hydrated trajectory payloads.
        clauses, params = _filters(
            prefix="r.",
            scenario=scenario,
            code_version=code_version,
            engine=engine,
            mechanism=mechanism,
        )
        rows = self._conn.execute(
            f"""
            SELECT m.metric, m.value
            FROM metrics m JOIN runs r ON r.id = m.run_id
            {clauses}
            ORDER BY r.seed, r.id
            """,
            params,
        ).fetchall()
        values: dict[str, list[float]] = {}
        for name, value in rows:
            if name in METRICS:
                values.setdefault(name, []).append(float(value))
        return values

    def summary(self) -> list[dict[str, object]]:
        """One row per (scenario, code_version, engine, mechanism): what ``results list`` shows."""
        rows = self._conn.execute(
            """
            SELECT scenario, code_version, engine, mechanism,
                   COUNT(*) AS replicates,
                   MIN(seed) AS seed_min, MAX(seed) AS seed_max,
                   MAX(recorded_at) AS recorded_at
            FROM runs
            GROUP BY scenario, code_version, engine, mechanism
            ORDER BY scenario, MIN(id)
            """
        ).fetchall()
        return [
            {
                "scenario": scenario,
                "code_version": code_version,
                "engine": engine,
                "mechanism": mechanism,
                "replicates": replicates,
                "seeds": f"{seed_min}..{seed_max}" if seed_min != seed_max else str(seed_min),
                "recorded_at": recorded_at,
            }
            for scenario, code_version, engine, mechanism, replicates,
                seed_min, seed_max, recorded_at in rows
        ]

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    # -- internals ---------------------------------------------------------------------
    def _hydrate(self, row: Iterable[object]) -> StoredRun:
        (
            run_id,
            scenario,
            seed,
            code_version,
            engine,
            mechanism,
            auctions,
            recorded_at,
            wall_time,
            worker,
            payload,
        ) = row
        metric_rows = self._conn.execute(
            "SELECT metric, value FROM metrics WHERE run_id = ?", (run_id,)
        ).fetchall()
        return StoredRun(
            run_id=int(run_id),
            scenario=str(scenario),
            seed=int(seed),
            code_version=str(code_version),
            engine=str(engine),
            mechanism=str(mechanism),
            auctions=int(auctions),
            recorded_at=str(recorded_at),
            wall_time=None if wall_time is None else float(wall_time),
            worker=None if worker is None else str(worker),
            metrics={str(name): float(value) for name, value in metric_rows},
            result=json.loads(payload),
        )


def _filters(*, prefix: str = "", **fields: str | None) -> tuple[str, tuple]:
    """Build a WHERE clause from the non-None key fields (columns under ``prefix``)."""
    clauses = [f"{prefix}{name} = ?" for name, value in fields.items() if value is not None]
    params = tuple(value for value in fields.values() if value is not None)
    return ("WHERE " + " AND ".join(clauses)) if clauses else "", params


def open_store(path: str | Path | None = None) -> ResultStore:
    """Open (creating if needed) the store at ``path`` or the default location.

    >>> store = open_store(":memory:")
    >>> store.scenarios()
    []
    >>> store.close()
    """
    return ResultStore(path if path is not None else default_db_path())
