"""dca-lint rule/CLI coverage against the fixtures in tests/lint_fixtures/.

The fixture convention: every line expected to produce a finding carries
a trailing ``# expect: R<n>`` marker (``# expect: R1,R3`` for several).
Each fixture test lints the file with the *full* rule set and asserts
the produced ``(line, rule)`` pairs equal the marked ones exactly — so
the suite pins both that rules fire where they should and that they stay
silent everywhere else (including against each other's fixtures).
"""

from __future__ import annotations

import io
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.core import LintRun, SourceModule, all_rules

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9, ]+)")


def expected_findings(path: Path) -> set[tuple[int, str]]:
    out: set[tuple[int, str]] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(line)
        if m:
            for rule in m.group(1).split(","):
                out.add((lineno, rule.strip()))
    return out


def lint_file(path: Path, project_root: Path | None = None) -> set[tuple[int, str]]:
    run = LintRun(
        modules=[SourceModule.from_path(path)],
        rules=all_rules(),
        project_root=project_root,
    )
    return {(f.line, f.rule) for f in run.execute()}


# --- one test per fixture: exact line/rule agreement ----------------------

FIXTURE_FILES = sorted(FIXTURES.rglob("*.py"))


@pytest.mark.parametrize("path", FIXTURE_FILES,
                         ids=[str(p.relative_to(FIXTURES)) for p in FIXTURE_FILES])
def test_fixture_findings_match_markers(path):
    assert lint_file(path) == expected_findings(path)


def test_fixture_suite_is_meaningful():
    """At least one positive fixture per per-module rule (R1..R5, R7)."""
    fired = set()
    for path in FIXTURE_FILES:
        fired |= {rule for _, rule in expected_findings(path)}
    assert {"R1", "R2", "R3", "R4", "R5", "R7"} <= fired


# --- package scoping ------------------------------------------------------

def test_package_classification():
    mod = SourceModule(FIXTURES / "repro/sim/r1_ok.py", "x = 1\n")
    assert mod.package_path == "repro/sim/r1_ok.py"
    assert mod.in_package("sim")
    assert not mod.in_package("dram")
    assert mod.dotted_name == "repro.sim.r1_ok"

    outside = SourceModule(FIXTURES / "clean/outside_scope.py", "x = 1\n")
    assert outside.package_path == "outside_scope.py"
    assert not outside.in_package("sim", "dram", "cache", "mem")


def test_engine_file_scope():
    src = "class Hot:\n    def __init__(self):\n        self.x = 0\n"
    engine = SourceModule(Path("src/repro/sim/engine.py"), src)
    assert engine.is_file("sim/engine.py")
    run = LintRun(modules=[engine], rules=all_rules(), project_root=None)
    assert {(f.rule) for f in run.execute()} == {"R3"}

    elsewhere = SourceModule(Path("src/repro/sim/other.py"), src)
    run = LintRun(modules=[elsewhere], rules=all_rules(), project_root=None)
    assert run.execute() == []


def test_engine_state_rule_exempts_the_engine():
    """R7 guards the simulator's private state everywhere but its own
    module."""
    src = "def f(sim):\n    return sim._heap\n"
    for path, fires in (("src/repro/sim/engine.py", False),
                        ("src/repro/sim/system.py", True),
                        ("perfbench/instrument.py", True)):
        run = LintRun(modules=[SourceModule(Path(path), src)],
                      rules=all_rules(), project_root=None)
        assert ([(f.rule, f.line) for f in run.execute()]
                == ([("R7", 2)] if fires else [])), path


@pytest.mark.parametrize("path, fires", [
    ("src/repro/core/x.py", True),
    ("src/repro/cache/translator.py", True),
    ("src/repro/sim/system.py", True),
    ("src/repro/cache/dramcache.py", False),
    ("src/repro/sim/cpu.py", False),
])
def test_enum_member_scope(path, fires):
    """R3's enum-member check covers core/, the translator and the
    system wiring: the code every DRAM access runs."""
    src = ("from repro.core.access import Priority\n\n"
           "def f(a):\n    return a == Priority.PR\n")
    run = LintRun(modules=[SourceModule(Path(path), src)], rules=all_rules(),
                  project_root=None)
    assert [(f.rule, f.line) for f in run.execute()] == (
        [("R3", 4)] if fires else [])


# --- suppressions ---------------------------------------------------------

def test_line_suppression_is_rule_specific():
    src = textwrap.dedent("""\
        import time

        def probe():
            return time.time()  # dca-lint: disable=R2
    """)
    mod = SourceModule(Path("repro/sim/x.py"), src)
    run = LintRun(modules=[mod], rules=all_rules(), project_root=None)
    assert {f.rule for f in run.execute()} == {"R1"}  # R2 pragma is no shield


def test_file_and_all_suppressions():
    path = FIXTURES / "repro/sim/suppress_file.py"
    assert lint_file(path) == set()


def test_suppression_requires_finding_line():
    src = textwrap.dedent("""\
        import time
        # dca-lint: disable=R1

        def probe():
            return time.time()
    """)
    mod = SourceModule(Path("repro/sim/x.py"), src)
    run = LintRun(modules=[mod], rules=all_rules(), project_root=None)
    assert {f.rule for f in run.execute()} == {"R1"}  # wrong line: no effect


# --- R6: schema discipline (repo-level) -----------------------------------

def _schema_project(tmp_path, version, design_rows):
    root = tmp_path / "proj"
    sysfile = root / "src" / "repro" / "sim" / "system.py"
    sysfile.parent.mkdir(parents=True)
    sysfile.write_text(f"RESULT_SCHEMA_VERSION = {version}\n")
    if design_rows is not None:
        table = "\n".join(f"| {v} | change notes |" for v in design_rows)
        (root / "DESIGN.md").write_text(
            "# DESIGN\n\nVersion history:\n\n"
            "| version | change |\n|---------|--------|\n" + table + "\n"
        )
    return root, sysfile


def _run_r6(root, sysfile):
    run = LintRun(
        modules=[SourceModule.from_path(sysfile)],
        rules=all_rules(),
        project_root=root,
    )
    return [f for f in run.execute() if f.rule == "R6"]


def test_r6_documented_bump_passes(tmp_path):
    root, sysfile = _schema_project(tmp_path, 6, design_rows=[6, 5, 4])
    assert _run_r6(root, sysfile) == []


def test_r6_undocumented_bump_fails(tmp_path):
    root, sysfile = _schema_project(tmp_path, 7, design_rows=[5, 4])
    findings = _run_r6(root, sysfile)
    assert len(findings) == 1
    assert "no matching row" in findings[0].message
    assert findings[0].path.endswith("system.py")


def test_r6_missing_design_md_fails(tmp_path):
    root, sysfile = _schema_project(tmp_path, 5, design_rows=None)
    findings = _run_r6(root, sysfile)
    assert len(findings) == 1
    assert "no DESIGN.md" in findings[0].message


def test_r6_live_repo_is_consistent():
    """The real tree: RESULT_SCHEMA_VERSION is documented in DESIGN.md."""
    sysfile = REPO_ROOT / "src" / "repro" / "sim" / "system.py"
    assert _run_r6(REPO_ROOT, sysfile) == []


# --- CLI ------------------------------------------------------------------

def test_cli_clean_tree_exits_zero():
    out = io.StringIO()
    rc = main([str(REPO_ROOT / "src"), "--root", str(REPO_ROOT)], stdout=out)
    assert rc == 0, out.getvalue()
    assert "clean" in out.getvalue()


def test_cli_findings_exit_one_and_json_schema():
    bad = FIXTURES / "repro" / "sim" / "r1_bad.py"
    out = io.StringIO()
    rc = main([str(bad), "--format", "json", "--root", str(REPO_ROOT)],
              stdout=out)
    assert rc == 1
    payload = json.loads(out.getvalue())
    assert payload["schema_version"] == 1
    assert payload["count"] == len(payload["findings"]) > 0
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "rule", "message"}


def test_cli_select_and_ignore():
    bad = FIXTURES / "repro" / "cache" / "r2_bad.py"
    out = io.StringIO()
    rc = main([str(bad), "--select", "R1", "--root", str(REPO_ROOT)],
              stdout=out)
    assert rc == 0  # only R2 findings exist there

    out = io.StringIO()
    rc = main([str(bad), "--ignore", "R2", "--root", str(REPO_ROOT)],
              stdout=out)
    assert rc == 0

    out = io.StringIO()
    rc = main([str(bad), "--select", "r2", "--root", str(REPO_ROOT)],
              stdout=out)
    assert rc == 1  # case-insensitive select


def test_cli_list_rules():
    out = io.StringIO()
    rc = main(["--list-rules"], stdout=out)
    assert rc == 0
    text = out.getvalue()
    for rid in ("R1", "R2", "R3", "R4", "R5", "R6", "R7"):
        assert rid in text


def test_cli_parse_error_reported_not_fatal(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    fine = tmp_path / "fine.py"
    fine.write_text("x = 1\n")
    out = io.StringIO()
    rc = main([str(tmp_path), "--root", str(tmp_path)], stdout=out)
    assert rc == 1
    assert "PARSE" in out.getvalue()


def test_cli_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["/no/such/path.py"])
    assert exc.value.code == 2
