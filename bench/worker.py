#!/usr/bin/env python3
"""A traced remote worker for the benchmark's ``sweep-remote`` traced pass.

``python3 bench/worker.py --connect HOST:PORT --id ID --id-base N --spans FILE``
installs the same span wrappers as the coordinator, wraps each job in a
``mechanisms.market_job`` or ``mechanisms.baseline_job`` span, serves jobs
through :func:`repro.exec.worker.run_worker`, and writes its spans to
``FILE`` when the coordinator shuts it down.  Needs ``src`` on
``PYTHONPATH``, as the harness sets it.
"""

from __future__ import annotations

import argparse

import spans
from repro.exec.serial import run_one
from repro.exec.worker import run_worker


def main() -> int:
    parser = argparse.ArgumentParser(description="traced benchmark worker")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--id", required=True)
    parser.add_argument("--id-base", type=int, required=True,
                        help="offset keeping this worker's span ids unique")
    parser.add_argument("--spans", required=True, help="where to write the spans")
    args = parser.parse_args()

    recorder = spans.Recorder(id_base=args.id_base)
    restore, _ = spans.install(recorder)

    def traced_run_one(spec, *, worker):
        kind = "market" if spec.mechanism == "market" else "baseline"
        run_id = f"sweep-remote/{spec.config.seed}/{spec.name}+{spec.mechanism}"
        with recorder.scope(run_id), recorder.span(f"mechanisms.{kind}_job"):
            return run_one(spec, worker=worker)

    try:
        run_worker(args.connect, worker_id=args.id, runner=traced_run_one, retry_seconds=30.0)
    finally:
        restore()
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
