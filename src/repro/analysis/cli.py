"""The ``dca-lint`` command-line entry point.

Exit codes: 0 clean, 1 findings, 2 usage errors.  Files that fail to
parse are reported as ``PARSE`` findings rather than aborting the run,
so one broken file never hides the rest of the report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Sequence

from repro.analysis.core import Finding, LintRun, Rule, SourceModule, all_rules
from repro.analysis.reporters import REPORTERS, render_rule_list

#: Directory names never descended into when expanding path arguments.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules",
                        "build", "dist", ".mypy_cache", ".ruff_cache"})


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts))
            )
        else:
            candidates = [path]
        for p in candidates:
            if p not in seen:
                seen.add(p)
                out.append(p)
    return out


def find_project_root(start: Path) -> Path:
    """Walk up from *start* looking for the repo root (DESIGN.md home)."""
    cur = start.resolve()
    if cur.is_file():
        cur = cur.parent
    for candidate in (cur, *cur.parents):
        if ((candidate / "DESIGN.md").is_file()
                or (candidate / "pyproject.toml").is_file()
                or (candidate / ".git").exists()):
            return candidate
    return cur


def select_rules(
    rules: Sequence[Rule], select: str | None, ignore: str | None
) -> list[Rule]:
    chosen = list(rules)
    if select:
        wanted = {r.strip().upper() for r in select.split(",") if r.strip()}
        chosen = [r for r in chosen if r.id in wanted]
    if ignore:
        dropped = {r.strip().upper() for r in ignore.split(",") if r.strip()}
        chosen = [r for r in chosen if r.id not in dropped]
    return chosen


def build_run(
    files: Sequence[Path], rules: Sequence[Rule], project_root: Path
) -> LintRun:
    modules: list[SourceModule] = []
    parse_errors: list[Finding] = []
    for path in files:
        try:
            modules.append(SourceModule.from_path(path))
        except SyntaxError as exc:
            parse_errors.append(Finding(
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="PARSE",
                message=f"syntax error: {exc.msg}",
            ))
        except (OSError, UnicodeDecodeError) as exc:
            parse_errors.append(Finding(
                path=str(path), line=1, col=0,
                rule="PARSE", message=f"unreadable: {exc}",
            ))
    return LintRun(
        modules=modules,
        rules=list(rules),
        project_root=project_root,
        parse_errors=parse_errors,
    )


def main(
    argv: Sequence[str] | None = None,
    stdout: IO[str] | None = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="dca-lint",
        description="Repo-specific invariant linter for the DCA "
                    "reproduction (determinism, no hidden globals, hot-path "
                    "hygiene, estimate purity, metrics and schema "
                    "discipline).",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint")
    parser.add_argument("--format", choices=sorted(REPORTERS),
                        default="text", help="output format")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run (default all)")
    parser.add_argument("--ignore", metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--root", type=Path, default=None,
                        help="project root for repo-level rules "
                             "(default: auto-detected from the first path)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every registered rule and exit")
    args = parser.parse_args(argv)

    rules = select_rules(all_rules(), args.select, args.ignore)
    if args.list_rules:
        render_rule_list(rules, out)
        return 0
    if not args.paths:
        parser.error("no paths given (try: dca-lint src)")
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(map(str, missing))}")

    files = collect_files(args.paths)
    root = args.root if args.root is not None else find_project_root(args.paths[0])
    run = build_run(files, rules, root)
    findings = run.execute()
    REPORTERS[args.format](findings, out)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
