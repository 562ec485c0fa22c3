"""``record_bench_entry`` writes a trajectory only when recording is switched on.

The tier-1 suite collects every benchmark module, so recording must be an
explicit opt-in (``make bench`` sets ``REPRO_BENCH_RECORD=1``); otherwise each
test run would rewrite the tracked ``BENCH_*.json`` files.
"""

from __future__ import annotations

import json

from conftest import RECORD_ENV, record_bench_entry


def test_writes_nothing_without_the_opt_in(tmp_path, monkeypatch):
    monkeypatch.delenv(RECORD_ENV, raising=False)
    path = tmp_path / "BENCH_probe.json"
    record_bench_entry(path, speedup=2.0)
    assert not path.exists()


def test_writes_nothing_for_other_values(tmp_path, monkeypatch):
    monkeypatch.setenv(RECORD_ENV, "0")
    path = tmp_path / "BENCH_probe.json"
    record_bench_entry(path, speedup=2.0)
    assert not path.exists()


def test_writes_the_entry_with_the_opt_in(tmp_path, monkeypatch):
    monkeypatch.setenv(RECORD_ENV, "1")
    path = tmp_path / "BENCH_probe.json"
    record_bench_entry(path, speedup=2.0)
    history = json.loads(path.read_text())
    assert len(history) == 1
    assert history[0]["speedup"] == 2.0
    assert "recorded_at" in history[0]
