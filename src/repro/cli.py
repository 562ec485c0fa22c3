"""``python -m repro`` — run catalog scenarios from the command line.

Eight subcommands:

``list``
    Show every scenario in the catalog (name, scale, tags, description).
``run``
    Run one scenario end to end (optionally several replicate seeds in
    parallel) and print its trajectory report.
``tournament``
    Evolve a trait-parameterised bidder population across generations of a
    catalog scenario (see ``docs/tournaments.md``): each generation's
    replicate runs fan across the selected execution backend, genomes are
    scored on settled surplus / overcommitted capital / satisfied fraction,
    and clone/mutate/select produces the next generation.  Prints the
    per-generation premium trajectory with 95% CIs and whether premiums
    fell CI-separated — the paper's live finding.  ``tournament`` with no
    preset name (or ``--list``) lists the registered tournament presets.
``sweep``
    Run a batch of scenarios in parallel and print the aggregate
    cross-scenario report.  ``--mechanism`` crosses the selection with
    allocation mechanisms (``market``, ``fixed-price``, ``priority``,
    ``proportional``, ``lottery``, a comma list, or ``all``); ``--backend``
    selects the execution backend (``process``, ``remote``, or ``list`` to
    show them) — ``remote`` listens on ``--bind HOST:PORT`` and streams jobs
    to connected ``worker`` daemons.
``worker``
    Serve jobs for a ``remote``-backend coordinator: ``python -m repro
    worker --connect HOST:PORT`` dials the sweep process, announces an id
    and in-flight capacity, and executes streamed scenarios until the
    coordinator shuts it down.  ``--daemon`` keeps the worker alive across
    sweeps (it redials after each one) until a ``workers drain`` retires
    it; ``--secret`` authenticates against a coordinator run with the same
    secret (see ``docs/distributed.md``).
``workers``
    Manage a live coordinator's fleet over its control plane:
    ``workers list`` (per-worker status plus job-queue depths),
    ``workers drain`` (finish in-flight jobs, retire every worker),
    ``workers scale N`` (shrink the fleet without losing queued jobs, or
    report how many more workers to start).
``compare-mechanisms``
    Compare one scenario's stored replicates across allocation mechanisms:
    mean / 95% CI per metric per mechanism, with a direction-aware leader
    verdict (the paper's market-vs-tradition claim, read off the store).
``results``
    Inspect the persistent result store: ``results list`` (what is stored),
    ``results show`` (mean / 95% CI per metric across replicates), and
    ``results compare`` (diff two code versions and flag regressions —
    exits with code 3 when a metric regressed beyond the tolerance;
    ``--baseline-db`` reads the baseline side from another store file, which
    is how CI gates a PR against the previous build's artifact).

``run`` and ``sweep`` persist every finished run into the sqlite result
store (``--db``, default ``./repro_results.sqlite`` or ``$REPRO_RESULTS_DB``)
keyed by ``(scenario, seed, code_version, engine, mechanism)``; pass
``--no-store`` to skip.  ``--json`` switches stdout from human-readable
tables to the runner's canonical JSON report, which is byte-identical for
any ``--workers`` value; progress and timing always go to stderr so they
never pollute the artifact.

>>> from repro.cli import build_parser
>>> build_parser().parse_args(["run", "smoke", "--workers", "2"]).workers
2
>>> build_parser().parse_args(["tournament", "paper-tournament", "--generations", "3"]).generations
3
>>> build_parser().parse_args(["tournament", "--list"]).list_tournaments
True
>>> build_parser().parse_args(["sweep", "--all"]).all
True
>>> build_parser().parse_args(["sweep", "--mechanism", "all"]).mechanism
'all'
>>> build_parser().parse_args(["sweep", "--backend", "remote"]).backend
'remote'
>>> build_parser().parse_args(["worker", "--connect", "host:7077"]).capacity
1
>>> build_parser().parse_args(["worker", "--connect", "host:7077", "--daemon"]).daemon
True
>>> build_parser().parse_args(["workers", "list", "--connect", "host:7077"]).workers_command
'list'
>>> build_parser().parse_args(["workers", "scale", "3", "--connect", "host:7077"]).count
3
>>> build_parser().parse_args(["sweep", "--backend", "remote", "--persist"]).persist
True
>>> build_parser().parse_args(["compare-mechanisms", "smoke"]).scenario
'smoke'
>>> build_parser().parse_args(["results", "show", "smoke"]).scenario
'smoke'
>>> build_parser().parse_args(["results", "compare", "smoke", "--tolerance", "0.1"]).tolerance
0.1
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro import __version__
from repro.simulation.catalog import (
    default_sweep_names,
    get_scenario,
    scenario_names,
)
from repro.simulation.runner import ParallelRunner, ScenarioRunResult, SweepReport

#: Exit code of ``results compare`` when a metric regressed (distinct from
#: 1 = error and 2 = usage so CI can tell "regression" from "broken run").
EXIT_REGRESSION = 3


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run market-economy scenarios from the catalog.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list every catalog scenario")
    list_cmd.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    list_cmd.add_argument("--tag", help="only scenarios carrying this tag")

    run_cmd = sub.add_parser("run", help="run one scenario end to end")
    run_cmd.add_argument("scenario", help="catalog scenario name (see `list`)")
    run_cmd.add_argument("--replicates", type=int, default=1, metavar="N",
                         help="run N replicate seeds (seed, seed+1, ...) in parallel")
    _add_run_options(run_cmd)

    t_cmd = sub.add_parser(
        "tournament",
        help="evolve a bidder population across generations of a scenario")
    t_cmd.add_argument("name", nargs="?", default=None,
                       help="tournament preset name (omit or --list to see them)")
    t_cmd.add_argument("--list", action="store_true", dest="list_tournaments",
                       help="list the registered tournament presets")
    t_cmd.add_argument("--generations", type=int, default=None, metavar="N",
                       help="override the preset's generation count")
    t_cmd.add_argument("--replicates", type=int, default=None, metavar="N",
                       help="override the replicate seeds evaluated per generation")
    t_cmd.add_argument("--population", type=int, default=None, metavar="N",
                       help="override the population size (default: base scenario's teams)")
    _add_run_options(t_cmd)

    sweep_cmd = sub.add_parser("sweep", help="run a batch of scenarios in parallel")
    sweep_cmd.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                           help="scenarios to run (default: all non-stress scenarios)")
    sweep_cmd.add_argument("--all", action="store_true",
                           help="include stress-tagged scenarios too")
    _add_run_options(sweep_cmd)

    worker_cmd = sub.add_parser(
        "worker", help="serve jobs for a remote-backend coordinator")
    worker_cmd.add_argument("--connect", required=True, metavar="HOST:PORT",
                            help="coordinator address (the sweep's --bind)")
    worker_cmd.add_argument("--id", default=None, metavar="ID",
                            help="worker id (default: <hostname>-<pid>); the "
                                 "coordinator refuses duplicates")
    worker_cmd.add_argument("--capacity", type=int, default=1, metavar="N",
                            help="jobs the coordinator may keep in flight here (default 1)")
    worker_cmd.add_argument("--retry", type=float, default=10.0, metavar="SECONDS",
                            help="keep redialling a not-yet-listening coordinator "
                                 "this long (default 10)")
    worker_cmd.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                            help="seconds between heartbeats (default 1)")
    worker_cmd.add_argument("--daemon", action="store_true",
                            help="survive across sweeps: redial after each one until "
                                 "a `workers drain` retires this worker")
    worker_cmd.add_argument("--secret", default=None, metavar="SECRET",
                            help="shared secret for the coordinator handshake "
                                 "(default: $REPRO_SECRET)")

    workers_cmd = sub.add_parser(
        "workers", help="manage a live coordinator's worker fleet")
    workers_sub = workers_cmd.add_subparsers(dest="workers_command", required=True)
    w_list = workers_sub.add_parser("list", help="per-worker status and queue depths")
    w_list.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    w_drain = workers_sub.add_parser(
        "drain", help="finish in-flight jobs, then retire every worker")
    w_drain.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="bound how long the coordinator waits on stuck jobs")
    w_scale = workers_sub.add_parser(
        "scale", help="shrink the fleet to N workers (queued jobs are never lost)")
    w_scale.add_argument("count", type=int, help="target fleet size")
    for w_sub in (w_list, w_drain, w_scale):
        w_sub.add_argument("--connect", required=True, metavar="HOST:PORT",
                           help="coordinator address (the sweep's --bind)")
        w_sub.add_argument("--secret", default=None, metavar="SECRET",
                           help="shared secret for the coordinator handshake "
                                "(default: $REPRO_SECRET)")

    cmp_mech = sub.add_parser(
        "compare-mechanisms",
        help="compare one scenario's stored replicates across allocation mechanisms")
    cmp_mech.add_argument("scenario", help="stored scenario name")
    _add_store_options(cmp_mech)
    cmp_mech.add_argument("--mechanisms", default=None, metavar="M1,M2,...",
                          help="mechanisms to compare (default: every one stored)")
    cmp_mech.add_argument("--code-version", default=None, metavar="V",
                          help="which recorded code version (default: the latest)")
    cmp_mech.add_argument("--engine", default=None, help="restrict to one demand engine")
    cmp_mech.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    results_cmd = sub.add_parser("results", help="inspect the persistent result store")
    results_sub = results_cmd.add_subparsers(dest="results_command", required=True)

    r_list = results_sub.add_parser("list", help="what the store holds, per scenario/version")
    _add_store_options(r_list)
    r_list.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    r_show = results_sub.add_parser("show", help="mean/stddev/95%% CI per metric")
    r_show.add_argument("scenario", help="stored scenario name")
    _add_store_options(r_show)
    r_show.add_argument("--code-version", default=None, metavar="V",
                        help="which recorded code version (default: the latest)")
    r_show.add_argument("--engine", default=None, help="restrict to one demand engine")
    r_show.add_argument("--mechanism", default=None,
                        help="restrict to one allocation mechanism")
    r_show.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    r_cmp = results_sub.add_parser(
        "compare", help="diff two code versions; exit 3 on metric regressions")
    r_cmp.add_argument("scenario", help="stored scenario name")
    _add_store_options(r_cmp)
    r_cmp.add_argument("--baseline", default=None, metavar="V",
                       help="baseline code version (default: second-newest recorded)")
    r_cmp.add_argument("--candidate", default=None, metavar="V",
                       help="candidate code version (default: newest recorded)")
    r_cmp.add_argument("--baseline-db", type=Path, default=None, metavar="FILE",
                       help="read the baseline side from this store file instead "
                            "(cross-PR CI gate; default baseline: its newest version)")
    r_cmp.add_argument("--tolerance", type=float, default=None, metavar="FRAC",
                       help="relative change a metric may move before it flags (default 0.05)")
    r_cmp.add_argument("--engine", default=None, help="restrict to one demand engine")
    r_cmp.add_argument("--mechanism", default=None,
                       help="restrict to one allocation mechanism")
    r_cmp.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    return parser


def _add_run_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--workers", type=int, default=None, metavar="N",
                     help="process backend: pool size (default: one per core; 1 = serial); "
                          "remote backend: workers to wait for before dispatching")
    cmd.add_argument("--backend", default=None, metavar="NAME",
                     help="execution backend: process (default), remote, "
                          "or 'list' to show every registered backend")
    cmd.add_argument("--bind", default=None, metavar="HOST:PORT",
                     help="remote backend only: coordinator listen address "
                          "(default 127.0.0.1:7077; port 0 picks one)")
    cmd.add_argument("--secret", default=None, metavar="SECRET",
                     help="remote backend only: require workers to know this shared "
                          "secret (default: $REPRO_SECRET)")
    cmd.add_argument("--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
                     help="remote backend only: declare a silent worker lost after "
                          "this long (default 10)")
    cmd.add_argument("--retry-budget", type=int, default=None, metavar="N",
                     help="remote backend only: worker-loss requeues allowed per job "
                          "before the sweep aborts (default 5)")
    cmd.add_argument("--persist", action="store_true",
                     help="remote backend only: keep the coordinator and its fleet "
                          "alive after the report, serving `workers` control "
                          "commands, until a `workers drain` retires it")
    cmd.add_argument("--auctions", type=int, default=None, metavar="N",
                     help="override the scenario's auction count")
    cmd.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    cmd.add_argument("--engine", choices=("auto", "scalar", "batch"),
                     default=None, help="override the demand-collection engine")
    cmd.add_argument("--mechanism", default=None, metavar="M",
                     help="allocation mechanism(s): a name, a comma list, or 'all' "
                          "(default: each scenario's own, normally 'market'); "
                          "multiple names cross the scenario selection")
    cmd.add_argument("--json", action="store_true",
                     help="emit the canonical JSON report on stdout")
    cmd.add_argument("--out", type=Path, default=None, metavar="FILE",
                     help="also write the canonical JSON report to FILE")
    _add_store_options(cmd)
    cmd.add_argument("--no-store", action="store_true",
                     help="do not persist results into the store")
    cmd.add_argument("--code-version", default=None, metavar="V",
                     help="record under this code version (default: derived from the tree)")


def _add_store_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--db", type=Path, default=None, metavar="FILE",
                     help="result store path (default: $REPRO_RESULTS_DB or ./repro_results.sqlite)")


class _UsageError(Exception):
    """Bad command-line input (unknown scenario, conflicting flags): exit 2."""


def _get_spec(name: str):
    """Scenario lookup with the unknown-name KeyError narrowed to usage errors,
    so KeyErrors from inside a running economy surface as real tracebacks."""
    try:
        return get_scenario(name)
    except KeyError as error:
        raise _UsageError(error.args[0]) from None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "tournament":
            return _cmd_tournament(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "workers":
            return _cmd_workers(args)
        if args.command == "compare-mechanisms":
            return _cmd_compare_mechanisms(args)
        return _cmd_results(args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader went away (`repro results show ... | head`); exit
        # quietly instead of tracebacking.  Re-point stdout at devnull so the
        # interpreter's shutdown flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


# -- list ---------------------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    summaries = [_get_spec(name).summary() for name in scenario_names()]
    if args.tag:
        summaries = [s for s in summaries if args.tag in s["tags"]]
    if args.json:
        import json

        print(json.dumps(summaries, indent=2, sort_keys=True))
        return 0
    header = f"{'scenario':<22} {'clusters':>8} {'teams':>6} {'auctions':>8} {'engine':>7}  description"
    print(header)
    print("-" * len(header))
    for s in summaries:
        tags = f"  [{', '.join(s['tags'])}]" if s["tags"] else ""
        print(
            f"{s['name']:<22} {s['clusters']:>8} {s['teams']:>6} {s['auctions']:>8} "
            f"{s['engine']:>7}  {s['description']}{tags}"
        )
    return 0


# -- run / sweep --------------------------------------------------------------------------


def _overrides(args: argparse.Namespace) -> dict[str, object]:
    overrides = {}
    if args.auctions is not None:
        overrides["auctions"] = args.auctions
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.engine is not None:
        overrides["engine"] = args.engine
    return overrides


def _print_backend_list() -> int:
    """What ``--backend list`` shows: every registered execution backend."""
    from repro.exec import backend_summaries

    header = f"{'backend':<10} description"
    print(header)
    print("-" * len(header))
    for row in backend_summaries():
        print(f"{row['name']:<10} {row['description']}")
    return 0


def _backend_for(args: argparse.Namespace):
    """The execution backend a run/sweep uses: a registry name or an instance.

    ``None`` (no ``--backend``) keeps the runner's default (the process
    pool).  The remote backend is the only one needing configuration beyond
    ``--workers``, so it is built here; ``--bind`` with any other backend is
    a usage error rather than a silently dead flag.
    """
    from repro.exec import DEFAULT_BIND, RemoteBackend, backend_names, parse_hostport
    from repro.exec.coordinator import DEFAULT_HEARTBEAT_TIMEOUT
    from repro.exec.queue import DEFAULT_RETRY_BUDGET

    if args.backend == "remote":
        bind = args.bind or DEFAULT_BIND
        try:
            parse_hostport(bind)
        except ValueError as error:
            raise _UsageError(str(error)) from None
        if args.heartbeat_timeout is not None and args.heartbeat_timeout <= 0:
            raise _UsageError("--heartbeat-timeout must be positive seconds")
        if args.retry_budget is not None and args.retry_budget < 0:
            raise _UsageError("--retry-budget must be >= 0")
        return RemoteBackend(
            bind=bind,
            workers=args.workers,
            secret=_secret(args),
            heartbeat_timeout=(
                DEFAULT_HEARTBEAT_TIMEOUT
                if args.heartbeat_timeout is None
                else args.heartbeat_timeout
            ),
            retry_budget=(
                DEFAULT_RETRY_BUDGET if args.retry_budget is None else args.retry_budget
            ),
            persistent=args.persist,
        )
    for flag, value in (
        ("--bind", args.bind),
        ("--secret", args.secret),
        ("--heartbeat-timeout", args.heartbeat_timeout),
        ("--retry-budget", args.retry_budget),
        ("--persist", args.persist or None),
    ):
        if value is not None:
            raise _UsageError(f"{flag} only applies to --backend remote")
    if args.backend is None:
        return None
    if args.backend not in backend_names():
        known = ", ".join(backend_names())
        raise _UsageError(f"unknown backend {args.backend!r}; available: {known} (or 'list')")
    return args.backend


def _secret(args: argparse.Namespace) -> str | None:
    """The shared secret: the explicit flag, else the ambient $REPRO_SECRET."""
    if args.secret is not None:
        return args.secret
    return os.environ.get("REPRO_SECRET") or None


def _mechanisms(args: argparse.Namespace) -> list[str] | None:
    """The validated mechanism names of ``--mechanism``, or None when unset."""
    if args.mechanism is None:
        return None
    from repro.mechanisms import resolve_mechanisms

    try:
        return resolve_mechanisms(args.mechanism)
    except (KeyError, ValueError) as error:
        raise _UsageError(error.args[0]) from None


def _progress(result: ScenarioRunResult) -> None:
    label = f" [{result.mechanism}]" if result.mechanism != "market" else ""
    print(
        f"  done: {result.scenario}{label} (seed {result.seed}) — "
        f"{result.auctions} auctions, {result.trade_count} trades, "
        f"median premium {result.median_premium[0]:.3f} -> {result.median_premium[-1]:.3f}",
        file=sys.stderr,
    )


def _emit(report: SweepReport, args: argparse.Namespace, elapsed: float, workers: int | None) -> None:
    payload = report.to_json()
    if args.out is not None:
        args.out.write_text(payload)
        print(f"report written to {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(payload)
    else:
        _print_text_report(report)
    label = "serial" if (workers or 0) == 1 else f"workers={workers or 'auto'}"
    print(f"finished in {elapsed:.2f}s ({label})", file=sys.stderr)


def _print_text_report(report: SweepReport) -> None:
    header = (
        f"{'scenario':<22} {'mechanism':<12} {'teams':>6} {'pools':>6} {'auctions':>8} "
        f"{'rounds':>7} {'trades':>7} {'premium first->last':>20} {'util spread':>12}"
    )
    print(header)
    print("-" * len(header))
    for r in report.results:
        rounds = sum(r.clearing_rounds)
        premium = f"{r.median_premium[0]:.3f} -> {r.median_premium[-1]:.3f}"
        spread = f"{r.utilization_spread_change:+.3f}"
        print(
            f"{r.scenario:<22} {r.mechanism:<12} {r.teams:>6} {r.pools:>6} {r.auctions:>8} "
            f"{rounds:>7} {r.trade_count:>7} {premium:>20} {spread:>12}"
        )
    aggregate = report.aggregate()
    print()
    print(
        f"{aggregate['scenario_count']} scenario(s), {aggregate['total_auctions']} auctions, "
        f"{aggregate['total_trades']} settled trades, "
        f"mean {aggregate['mean_clearing_rounds']:.1f} clock rounds per auction"
    )


def _store_for(args: argparse.Namespace):
    """The (store, code_version) a run/sweep records into, or (None, None)."""
    if args.no_store:
        return None, None
    from repro.results.store import default_code_version, open_store

    version = args.code_version or default_code_version()
    return open_store(args.db), version


def _record_note(report: SweepReport, store, version: str) -> None:
    print(
        f"{len(report.results)} run(s) recorded to {store.path} (code version {version})",
        file=sys.stderr,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.backend == "list":
        return _print_backend_list()
    if args.replicates < 1:
        raise _UsageError("--replicates must be >= 1")
    spec = _get_spec(args.scenario).with_overrides(**_overrides(args))
    mechanisms = _mechanisms(args)
    backend = _backend_for(args)
    runner = ParallelRunner(workers=args.workers, backend=backend)
    store, version = _store_for(args)
    start = time.perf_counter()
    try:
        if mechanisms is None or len(mechanisms) == 1:
            if mechanisms is not None:
                spec = spec.with_overrides(mechanism=mechanisms[0])
            # replicates=1 runs the spec under its own seed (seed + 0).
            report = runner.run_replicates(
                spec, args.replicates, on_result=_progress, store=store, code_version=version
            )
        else:
            # mechanism x replicate cross product, mechanism-major.
            specs = [
                spec.with_overrides(mechanism=mechanism, seed=spec.config.seed + i)
                for mechanism in mechanisms
                for i in range(args.replicates)
            ]
            report = runner.run_specs(
                specs, on_result=_progress, store=store, code_version=version
            )
        if store is not None:
            _record_note(report, store, version)
    finally:
        if store is not None:
            store.close()
    _emit(report, args, time.perf_counter() - start, args.workers)
    _maybe_persist(backend, args)
    return 0


# -- tournament ---------------------------------------------------------------------------


def _cmd_tournament(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.agents.tournament import GenerationReport, TournamentEngine
    from repro.simulation.catalog import get_tournament

    if args.backend == "list":
        return _print_backend_list()
    if args.list_tournaments or args.name is None:
        return _print_tournament_list()
    if args.mechanism is not None:
        raise _UsageError("--mechanism does not apply to tournaments (always the market)")
    if args.engine is not None:
        raise _UsageError("--engine does not apply to tournaments (the base scenario's engine runs)")
    try:
        config = get_tournament(args.name)
    except KeyError as error:
        raise _UsageError(error.args[0]) from None
    overrides: dict[str, object] = {}
    if args.generations is not None:
        overrides["generations"] = args.generations
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.population is not None:
        overrides["population_size"] = args.population
    if args.auctions is not None:
        overrides["auctions"] = args.auctions
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        try:
            config = dc_replace(config, **overrides)
        except ValueError as error:  # re-validated by TournamentConfig
            raise _UsageError(str(error)) from None

    backend = _backend_for(args)
    runner = ParallelRunner(workers=args.workers, backend=backend)
    store, version = _store_for(args)

    def progress(report: GenerationReport) -> None:
        premiums = report.mean_premium_per_replicate
        best = report.best_genome
        print(
            f"  generation {report.generation}: mean premium "
            f"{float(sum(premiums)) / len(premiums):.4f} over {len(premiums)} replicate(s), "
            f"best genome {best.name} ({best.kind}, score {report.scores[best.name]:.4f})",
            file=sys.stderr,
        )

    start = time.perf_counter()
    try:
        report = TournamentEngine(
            config, runner=runner, store=store, code_version=version
        ).run(on_generation=progress)
        if store is not None:
            runs = sum(len(g.results) for g in report.generations)
            print(
                f"{runs} run(s) recorded to {store.path} (code version {version})",
                file=sys.stderr,
            )
    finally:
        if store is not None:
            store.close()
    payload = report.to_json()
    if args.out is not None:
        args.out.write_text(payload)
        print(f"report written to {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(payload)
    else:
        _print_tournament_report(report)
    workers = args.workers
    label = "serial" if (workers or 0) == 1 else f"workers={workers or 'auto'}"
    print(f"finished in {time.perf_counter() - start:.2f}s ({label})", file=sys.stderr)
    _maybe_persist(backend, args)
    return 0


def _print_tournament_list() -> int:
    from repro.simulation.catalog import get_tournament, tournament_names

    header = (
        f"{'tournament':<20} {'base scenario':<18} {'gens':>5} {'reps':>5}  description"
    )
    print(header)
    print("-" * len(header))
    for name in tournament_names():
        s = get_tournament(name).summary()
        print(
            f"{s['name']:<20} {s['base_scenario']:<18} {s['generations']:>5} "
            f"{s['replicates']:>5}  {s['description']}"
        )
    return 0


def _print_tournament_report(report) -> None:
    header = f"{'generation':>10} {'mean premium':>13} {'95% CI':>22} {'best genome':<24} kind"
    print(header)
    print("-" * len(header))
    for gen, row in zip(report.generations, report.premium_trajectory()):
        ci = f"[{row.ci95[0]:.4f}, {row.ci95[1]:.4f}]" if row.ci95 else "n/a"
        best = gen.best_genome
        print(
            f"{row.generation:>10} {row.mean:>13.4f} {ci:>22} {best.name:<24} {best.kind}"
        )
    print()
    last = report.generations[-1]
    verdict = "yes" if report.premiums_fell else "no"
    print(
        f"premiums fell, 95%-CI separated, generation 0 -> "
        f"{last.generation}: {verdict}"
    )
    print("final-generation kind scores: "
          + ", ".join(f"{k} {v:+.3f}" for k, v in last.kind_mean_scores().items()))


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.backend == "list":
        return _print_backend_list()
    if args.scenarios and args.all:
        raise _UsageError("pass either explicit scenario names or --all, not both")
    names = args.scenarios or (scenario_names() if args.all else default_sweep_names())
    overrides = _overrides(args)
    specs = [_get_spec(name).with_overrides(**overrides) for name in names]
    mechanisms = _mechanisms(args)
    if mechanisms is not None:
        from repro.simulation.runner import expand_mechanisms

        specs = expand_mechanisms(specs, mechanisms)
    label = f" x {len(mechanisms)} mechanism(s)" if mechanisms and len(mechanisms) > 1 else ""
    print(
        f"sweeping {len(specs)} job(s){label}: "
        + ", ".join(sorted({s.name for s in specs})),
        file=sys.stderr,
    )
    backend = _backend_for(args)
    runner = ParallelRunner(workers=args.workers, backend=backend)
    store, version = _store_for(args)
    start = time.perf_counter()
    try:
        report = runner.run_specs(specs, on_result=_progress, store=store, code_version=version)
        if store is not None:
            _record_note(report, store, version)
    finally:
        if store is not None:
            store.close()
    _emit(report, args, time.perf_counter() - start, args.workers)
    _maybe_persist(backend, args)
    return 0


def _maybe_persist(backend, args: argparse.Namespace) -> None:
    """``--persist``: keep serving the fleet until a drain retires it."""
    if not getattr(args, "persist", False) or backend is None:
        return
    print(
        f"fleet persisted on {backend.address}; inspect with "
        f"`python -m repro workers list --connect {backend.address}`, "
        f"retire with `python -m repro workers drain --connect {backend.address}`",
        file=sys.stderr,
    )
    try:
        backend.wait_drained()
    except KeyboardInterrupt:
        print("interrupted; releasing the fleet (workers survive)", file=sys.stderr)
    backend.close()


# -- worker -------------------------------------------------------------------------------


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.exec import WorkerError, parse_hostport, run_worker
    from repro.exec.worker import DEFAULT_HEARTBEAT_INTERVAL

    if args.capacity < 1:
        raise _UsageError("--capacity must be >= 1")
    if args.heartbeat is not None and args.heartbeat <= 0:
        raise _UsageError("--heartbeat must be positive seconds")
    try:
        parse_hostport(args.connect)
    except ValueError as error:
        raise _UsageError(str(error)) from None
    try:
        run_worker(
            args.connect,
            worker_id=args.id,
            capacity=args.capacity,
            retry_seconds=args.retry,
            heartbeat_interval=(
                DEFAULT_HEARTBEAT_INTERVAL if args.heartbeat is None else args.heartbeat
            ),
            secret=_secret(args),
            daemon=args.daemon,
            log=lambda message: print(message, file=sys.stderr),
        )
    except WorkerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


# -- workers (control plane) --------------------------------------------------------------


def _cmd_workers(args: argparse.Namespace) -> int:
    from repro.exec import ControlClient, ControlError, parse_hostport

    try:
        parse_hostport(args.connect)
    except ValueError as error:
        raise _UsageError(str(error)) from None
    try:
        with ControlClient(args.connect, secret=_secret(args)) as fleet:
            if args.workers_command == "list":
                return _print_fleet(fleet.list(), as_json=args.json)
            if args.workers_command == "drain":
                reply = fleet.drain(timeout=args.timeout)
                print(f"fleet drained: {reply['workers']} worker(s) retired")
                return 0
            reply = fleet.scale(args.count)
            print(
                f"fleet at {reply['alive']} worker(s) "
                f"({reply['stopped']} retired)"
            )
            if reply["needed"]:
                print(
                    f"start {reply['needed']} more with "
                    f"`python -m repro worker --connect {args.connect} --daemon`"
                )
            return 0
    except ControlError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _print_fleet(fleet: dict, *, as_json: bool) -> int:
    if as_json:
        import json

        print(json.dumps(fleet, indent=2, sort_keys=True))
        return 0
    workers = fleet.get("workers", [])
    state = "sweeping" if fleet.get("sweeping") else "idle"
    if fleet.get("draining"):
        state += ", draining"
    print(f"coordinator {fleet.get('address')}: {len(workers)} worker(s), {state}")
    if workers:
        header = (
            f"{'worker':<28} {'mode':<7} {'cap':>4} {'busy':>5} {'done':>5} "
            f"{'status':<7} {'connected':>10}"
        )
        print(header)
        print("-" * len(header))
        for row in workers:
            mode = "daemon" if row.get("daemon") else "once"
            if row.get("draining"):
                mode += "*"
            print(
                f"{row['worker']:<28} {mode:<7} {row['capacity']:>4} "
                f"{row['in_flight']:>5} {row['jobs_done']:>5} {row['status']:<7} "
                f"{row['connected_seconds']:>9.0f}s"
            )
    queue = fleet.get("queue")
    if queue:
        print(
            "queue: "
            + ", ".join(f"{state} {count}" for state, count in sorted(queue.items()))
        )
    return 0


# -- compare-mechanisms -------------------------------------------------------------------


def _cmd_compare_mechanisms(args: argparse.Namespace) -> int:
    from repro.analysis.reports import render_mechanism_comparison
    from repro.results.stats import compare_mechanisms
    from repro.results.store import open_store

    names = None
    if args.mechanisms:
        names = [part.strip() for part in args.mechanisms.split(",") if part.strip()]
    with open_store(args.db) as store:
        try:
            report = compare_mechanisms(
                store,
                args.scenario,
                mechanisms=names,
                code_version=args.code_version,
                engine=args.engine,
            )
        except ValueError as error:
            raise _UsageError(str(error)) from None
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_mechanism_comparison(report))
    return 0


# -- results ------------------------------------------------------------------------------


def _cmd_results(args: argparse.Namespace) -> int:
    from repro.results.store import open_store

    with open_store(args.db) as store:
        if args.results_command == "list":
            return _cmd_results_list(args, store)
        if args.results_command == "show":
            return _cmd_results_show(args, store)
        return _cmd_results_compare(args, store)


def _cmd_results_list(args: argparse.Namespace, store) -> int:
    summary = store.summary()
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if not summary:
        print(f"result store {store.path} is empty")
        return 0
    header = (
        f"{'scenario':<22} {'code version':<18} {'engine':>7} {'mechanism':<13} "
        f"{'replicates':>10} {'seeds':>12}  recorded at"
    )
    print(header)
    print("-" * len(header))
    for row in summary:
        print(
            f"{row['scenario']:<22} {row['code_version']:<18} {row['engine']:>7} "
            f"{row['mechanism']:<13} {row['replicates']:>10} {row['seeds']:>12}  "
            f"{row['recorded_at']}"
        )
    return 0


def _cmd_results_show(args: argparse.Namespace, store) -> int:
    from repro.analysis.reports import render_replicate_stats
    from repro.results.stats import scenario_stats

    version = args.code_version or store.latest_code_version(scenario=args.scenario)
    if version is None:
        raise _UsageError(f"no stored runs for scenario {args.scenario!r} in {store.path}")
    try:
        stats = scenario_stats(
            store,
            args.scenario,
            code_version=version,
            engine=args.engine,
            mechanism=args.mechanism,
        )
    except ValueError as error:  # e.g. runs span several engines/mechanisms
        raise _UsageError(str(error)) from None
    if not stats:
        raise _UsageError(
            f"no stored runs for scenario {args.scenario!r} under code version {version!r}"
        )
    count = max(s.count for s in stats.values())
    mech_label = f" [{args.mechanism}]" if args.mechanism else ""
    if args.json:
        import json

        payload = {
            "scenario": args.scenario,
            "code_version": version,
            "mechanism": args.mechanism,
            "replicates": count,
            "metrics": {name: s.to_dict() for name, s in stats.items()},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        render_replicate_stats(
            stats,
            title=f"{args.scenario}{mech_label} @ {version} ({count} replicate(s))",
        )
    )
    return 0


def _cmd_results_compare(args: argparse.Namespace, store) -> int:
    from repro.analysis.reports import render_metric_comparisons
    from repro.results.stats import compare_versions

    baseline_store = None
    if args.baseline_db is not None:
        from repro.results.store import open_store

        if not args.baseline_db.exists():
            raise _UsageError(f"baseline store {args.baseline_db} does not exist")
        baseline_store = open_store(args.baseline_db)

    baseline, candidate = args.baseline, args.candidate
    try:
        if candidate is None:
            versions = store.code_versions(scenario=args.scenario)
            if not versions:
                raise _UsageError(f"no stored runs for scenario {args.scenario!r} in {store.path}")
            candidate = versions[-1]
        if baseline is None:
            if baseline_store is not None:
                # Cross-store gate: the baseline side is simply the other
                # store's newest recorded version of the scenario.
                baseline = baseline_store.latest_code_version(scenario=args.scenario)
                if baseline is None:
                    raise _UsageError(
                        f"baseline store {args.baseline_db} holds no runs of {args.scenario!r}"
                    )
            else:
                versions = store.code_versions(scenario=args.scenario)
                # The newest version recorded *before* the candidate, so an
                # explicit --candidate naming an older version still compares
                # forward in time instead of against a newer build.
                earlier = (
                    versions[: versions.index(candidate)]
                    if candidate in versions
                    else [v for v in versions if v != candidate]
                )
                if not earlier:
                    raise _UsageError(
                        f"scenario {args.scenario!r} has no stored code version recorded "
                        f"before {candidate!r}; pass --baseline explicitly"
                    )
                baseline = earlier[-1]
        tolerance = 0.05 if args.tolerance is None else args.tolerance
        try:
            report = compare_versions(
                store,
                args.scenario,
                baseline_version=baseline,
                candidate_version=candidate,
                tolerance=tolerance,
                engine=args.engine,
                mechanism=args.mechanism,
                baseline_store=baseline_store,
            )
        except ValueError as error:
            raise _UsageError(str(error)) from None
    finally:
        if baseline_store is not None:
            baseline_store.close()
    if not report.comparisons:
        # Nothing shared to compare must not read as a green gate.
        raise _UsageError(
            f"versions {baseline!r} and {candidate!r} share no metrics for "
            f"{args.scenario!r} (one-sided: {', '.join(report.missing_metrics) or 'none'})"
        )
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_metric_comparisons(report))
    if not report.ok:
        names = ", ".join(c.metric for c in report.regressions)
        print(f"REGRESSION: {names} moved beyond tolerance "
              f"{tolerance:.2%} between {baseline} and {candidate}", file=sys.stderr)
        return EXIT_REGRESSION
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
