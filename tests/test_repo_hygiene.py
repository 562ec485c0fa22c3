"""Repository hygiene: no result store in version control, no uncalled code.

``python -m repro run/sweep`` persists into ``./repro_results.sqlite`` by
default, right where a contributor is most likely to run it — the repository
root.  A binary store committed by accident churns every diff and leaks one
machine's local run history into everyone's checkout, so these tests pin the
two lines of defence: the ``.gitignore`` rule must cover the default DB path
(and sqlite side files), and the git index must stay free of sqlite files.

The last class keeps out public functions that only tests reach.
"""

from __future__ import annotations

import ast
import io
import re
import subprocess
import textwrap
import tokenize
from collections import defaultdict
from pathlib import Path

import pytest

from repro.results.store import DEFAULT_DB_NAME, default_db_path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=30
    )


def _require_git_checkout() -> None:
    try:
        probe = _git("rev-parse", "--is-inside-work-tree")
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git binary
        pytest.skip("git is not available")
    if probe.returncode != 0 or probe.stdout.strip() != "true":
        pytest.skip("not running from a git checkout")


class TestGitignoreCoversTheDefaultStore:
    def test_gitignore_names_the_default_db_file(self):
        lines = (REPO_ROOT / ".gitignore").read_text().splitlines()
        assert DEFAULT_DB_NAME in lines

    def test_default_db_path_resolves_to_the_ignored_name(self, monkeypatch):
        # The conftest pins $REPRO_RESULTS_DB for test isolation; drop it to
        # see what a contributor's bare `python -m repro run` would write.
        monkeypatch.delenv("REPRO_RESULTS_DB", raising=False)
        assert default_db_path().name == DEFAULT_DB_NAME

    def test_git_check_ignore_accepts_the_default_path(self):
        _require_git_checkout()
        result = _git("check-ignore", "--quiet", DEFAULT_DB_NAME)
        assert result.returncode == 0, (
            f"git does not ignore {DEFAULT_DB_NAME}; add it to .gitignore"
        )

    def test_git_check_ignore_accepts_sqlite_side_files(self):
        _require_git_checkout()
        result = _git("check-ignore", "--quiet", f"{DEFAULT_DB_NAME}-journal")
        assert result.returncode == 0


class TestNoStoreFilesTracked:
    def test_no_sqlite_files_in_the_git_index(self):
        _require_git_checkout()
        tracked = _git("ls-files").stdout.splitlines()
        offenders = [
            name
            for name in tracked
            if name.endswith((".sqlite", ".sqlite-journal", ".db"))
        ]
        assert offenders == [], f"result stores committed to git: {offenders}"


# -- uncalled public functions ----------------------------------------------------------------

#: The trees whose code counts as a caller; tests and doctests do not.
PROGRAM_TREES = ("src", "examples", "bench", "benchmarks")

#: Public definitions that only tests call, each with why it stays (module path
#: under ``src/repro`` and qualified name).
KEEP = {
    "cluster/fleet_gen.py:small_fleet": "fixture: shared by the agent, cluster and conftest suites",
    "cluster/pools.py:ResourcePool.with_utilization":
        "reference: the specification PoolIndex.with_utilizations is tested against",
    "core/batch.py:BatchResponse.bundle_indices":
        "observation helper: the batch tests read each bidder's chosen bundle index",
    "core/batch.py:sum_demand_rows":
        "reference: the batch tests sum the proxies' demand rows with it, the reduction"
        " respond_all's total must equal",
    "core/bids.py:Bid.bidder_class":
        "observation helper: the agent, bidlang and bid tests read a bid's class",
    "core/clock_auction.py:AuctionOutcome.price_map":
        "observation helper: the README quickstart and the clock tests read prices by pool",
    "market/accounts.py:Ledger.total_outstanding":
        "observation helper: the full-stack conservation test sums the balances",
    "market/platform.py:TradingPlatform.window_open":
        "observation helper: the platform tests follow the bid window",
    "market/quotas.py:QuotaRegistry.quota":
        "observation helper: the registry tests compare holdings with the dict reference",
    "market/services.py:ServiceSpec.covering_amount":
        "reference: the property suite checks ServiceCatalog.covering_amounts and the"
        " bundles strategies place against it",
    "simulation/scenario.py:small_scenario":
        "fixture: shared by the simulation, baseline and full-stack suites",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_FORMAT_FIELD = re.compile(r"\{([^{}]*)\}")


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Lines of an ``__init__.py``'s imports and ``__all__``: re-exports, not calls."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _string_identifiers(token: str) -> list[str]:
    """Names a string literal hands to code.

    An f-string's replacement fields are code.  A plain string without
    whitespace may be an attribute name or a ``module:Class.method`` path;
    prose, docstrings and doctests hold whitespace, and they are skipped.
    """
    prefix = token[: token.index(token[-1])].lower()
    if "f" in prefix:
        return _IDENTIFIER.findall(" ".join(_FORMAT_FIELD.findall(token)))
    if any(char.isspace() for char in token):
        return []
    return _IDENTIFIER.findall(token)


def uncalled_public_definitions(root: Path = REPO_ROOT) -> list[tuple[str, int, str]]:
    """``(path, line, qualname)`` of each public function or method nothing calls.

    ``path`` is relative to ``src/repro``.  A definition counts as called
    when its name occurs in the program's code outside the definition's own
    lines; the name after another ``def`` is no call.  Matching is by name
    alone, so a method shares its callers with every same-named method and
    local: the scan finds only names that the program never mentions.
    """
    package = root / "src" / "repro"
    definitions: list[tuple[Path, str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [(node.name, node)] if isinstance(node, functions) else []
            if isinstance(node, ast.ClassDef):
                members = [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, functions)
                ]
            definitions.extend(
                (path, qualname, item)
                for qualname, item in members
                if not item.name.startswith("_")
            )

    wanted = {item.name for _, _, item in definitions}
    occurrences: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for tree in PROGRAM_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            text = path.read_text()
            skip = _reexport_lines(ast.parse(text)) if path.name == "__init__.py" else set()
            previous = ""
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                line = token.start[0]
                after_def, previous = previous == "def", token.string
                if line in skip:
                    continue
                if token.type == tokenize.NAME:
                    names = [] if after_def else [token.string]
                elif token.type == tokenize.STRING:
                    names = _string_identifiers(token.string)
                else:
                    continue
                for name in names:
                    if name in wanted:
                        occurrences[name].append((path, line))

    uncalled = []
    for path, qualname, item in definitions:
        first = min([item.lineno] + [decorator.lineno for decorator in item.decorator_list])
        if all(
            where == path and first <= line <= item.end_lineno
            for where, line in occurrences[item.name]
        ):
            uncalled.append((path.relative_to(package).as_posix(), item.lineno, qualname))
    return uncalled


class TestEveryPublicFunctionHasAProgramCaller:
    @pytest.fixture(scope="class")
    def uncalled(self) -> list[tuple[str, int, str]]:
        return uncalled_public_definitions()

    def test_nothing_uncalled_outside_keep(self, uncalled):
        unexplained = [
            f"src/repro/{path}:{line} {qualname}"
            for path, line, qualname in uncalled
            if f"{path}:{qualname}" not in KEEP
        ]
        assert unexplained == [], (
            "public definitions that nothing in src/, examples/, bench/ or "
            "benchmarks/ calls; delete them, or add each to KEEP with its reason:\n"
            + "\n".join(unexplained)
        )

    def test_keep_holds_only_uncalled_definitions_with_a_reason(self, uncalled):
        flagged = {f"{path}:{qualname}" for path, _, qualname in uncalled}
        assert sorted(set(KEEP) - flagged) == [], "KEEP entries that now have a caller or are gone"
        kinds = {reason.split(":")[0] for reason in KEEP.values()}
        assert kinds <= {"fixture", "reference", "observation helper"}


def _checkout(root: Path, files: dict[str, str]) -> Path:
    """Write a small synthetic checkout of ``files`` (path -> source) under ``root``."""
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def _uncalled_names(root: Path, files: dict[str, str]) -> list[str]:
    return [qualname for _, _, qualname in uncalled_public_definitions(_checkout(root, files))]


HELPER = {"src/repro/mod.py": "def helper():\n    return 1\n"}


class TestUncalledScanRules:
    """What the scan counts as a caller, each rule on a synthetic checkout."""

    @pytest.mark.parametrize(
        "caller", ["src/repro/user.py", "examples/demo.py", "bench/run.py", "benchmarks/bench_mod.py"]
    )
    def test_a_call_from_any_program_tree_counts(self, tmp_path, caller):
        files = {**HELPER, caller: "from repro.mod import helper\n\nhelper()\n"}
        assert _uncalled_names(tmp_path, files) == []

    def test_a_test_is_no_caller(self, tmp_path):
        files = {**HELPER, "tests/test_mod.py": "from repro.mod import helper\n\nhelper()\n"}
        assert _uncalled_names(tmp_path, files) == ["helper"]

    def test_recursion_inside_the_definition_is_no_caller(self, tmp_path):
        files = {"src/repro/mod.py": "def walk(n):\n    return walk(n - 1) if n else 0\n"}
        assert _uncalled_names(tmp_path, files) == ["walk"]

    def test_init_reexports_are_no_callers_but_its_code_is(self, tmp_path):
        reexport = 'from repro.mod import helper\n\n__all__ = [\n    "helper",\n]\n'
        files = {**HELPER, "src/repro/__init__.py": reexport}
        assert _uncalled_names(tmp_path, files) == ["helper"]
        files["src/repro/__init__.py"] = reexport + "\nDEFAULT = helper()\n"
        assert _uncalled_names(tmp_path / "called", files) == []

    def test_a_same_named_definition_is_no_caller(self, tmp_path):
        files = {**HELPER, "src/repro/other.py": "class Other:\n    def helper(self):\n        return 2\n"}
        assert _uncalled_names(tmp_path, files) == ["helper", "Other.helper"]

    def test_f_string_fields_count_and_prose_does_not(self, tmp_path):
        prose = 'def main():\n    """Call helper for the value."""\n    return "helper and more"\n'
        files = {**HELPER, "src/repro/main.py": prose}
        assert _uncalled_names(tmp_path, files) == ["main", "helper"]
        files["examples/demo.py"] = 'from repro.main import main\n\nprint(f"{main()} {helper!r}")\n'
        assert _uncalled_names(tmp_path / "called", files) == []

    def test_a_whitespace_free_string_path_counts(self, tmp_path):
        files = {
            "src/repro/mod.py": "class Thing:\n    def method(self):\n        return 1\n",
            "bench/spans.py": 'TARGETS = ("repro.mod:Thing.method",)\n',
        }
        assert _uncalled_names(tmp_path, files) == []

    def test_a_decorator_naming_the_definition_is_no_caller(self, tmp_path):
        files = {
            "src/repro/mod.py": (
                "REGISTRY = {}\n\n\n"
                "def register(name):\n"
                "    return lambda fn: REGISTRY.setdefault(name, fn)\n\n\n"
                '@register("helper")\n'
                "def helper():\n"
                "    return 1\n"
            ),
        }
        assert uncalled_public_definitions(_checkout(tmp_path, files)) == [("mod.py", 9, "helper")]

    def test_private_and_nested_definitions_are_not_scanned(self, tmp_path):
        files = {
            "src/repro/mod.py": (
                "def _hidden():\n    return 0\n\n\n"
                "class Thing:\n"
                "    def _private(self):\n        return 1\n\n"
                "    def __len__(self):\n        return 0\n\n\n"
                "def outer():\n"
                "    def inner():\n        return 2\n\n"
                "    return inner\n"
            ),
        }
        assert _uncalled_names(tmp_path, files) == ["outer"]

    def test_reports_the_path_under_the_package_and_the_def_line(self, tmp_path):
        files = {
            "src/repro/sub/mod.py": (
                '"""A module."""\n\n\n'
                "class Thing:\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 1\n"
            ),
        }
        assert uncalled_public_definitions(_checkout(tmp_path, files)) == [
            ("sub/mod.py", 6, "Thing.size")
        ]
