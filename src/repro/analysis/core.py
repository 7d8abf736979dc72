"""Core machinery for dca-lint: modules, rules, suppressions, the run.

A lint run parses every ``.py`` file once into a :class:`SourceModule`
(AST + suppression map + package classification) and hands the batch to
each registered rule.  Rules come in two shapes:

* :class:`Rule` — per-module; sees one :class:`SourceModule` at a time.
* :class:`ProjectRule` — repo-level; sees the whole :class:`LintRun`
  (used by R6, which cross-checks ``sim/system.py`` against DESIGN.md).

Suppression comments are honoured centrally, after rules have produced
raw findings, so individual rules never need to know about them:

* ``# dca-lint: disable=R1`` (trailing, or alone on the line the finding
  is reported at) silences the listed rules for that line;
* ``# dca-lint: disable=all`` silences every rule for that line;
* ``# dca-lint: disable-file=R2,R3`` anywhere silences rules file-wide.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintRun",
    "ProjectRule",
    "Rule",
    "SourceModule",
    "all_rules",
    "dotted_call_name",
    "is_mutable_container",
]

#: Matches one suppression pragma inside a comment.  ``scope`` is either
#: ``disable`` (line) or ``disable-file`` (whole file); ``rules`` is a
#: comma-separated list of rule ids or the word ``all``.
_PRAGMA_RE = re.compile(
    r"#\s*dca-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Sentinel rule-id set meaning "every rule".
_ALL = frozenset({"ALL"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Extract per-line and file-level suppression pragmas from comments.

    Returns ``(line -> rule ids, file-wide rule ids)``; rule ids are
    upper-cased, with ``all`` normalised to the ``ALL`` sentinel.
    """
    per_line: dict[int, frozenset[str]] = {}
    file_wide: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            rules = frozenset(
                r.strip().upper() for r in match.group("rules").split(",")
            )
            if "ALL" in rules:
                rules = _ALL
            if match.group("scope") == "disable-file":
                file_wide |= rules
            else:
                line = tok.start[0]
                per_line[line] = per_line.get(line, frozenset()) | rules
    except tokenize.TokenError:
        pass  # unterminated strings etc.; the AST parse reports those
    return per_line, frozenset(file_wide)


def _package_path(path: Path) -> str:
    """Classify *path* by its position under the ``repro`` package.

    Returns a posix-style path anchored at the last ``repro`` segment
    (``repro/sim/engine.py``).  Files outside any ``repro`` tree keep
    their bare name, so package-scoped rules simply never match them —
    except that test fixtures may mirror the layout on purpose
    (``tests/lint_fixtures/repro/sim/bad.py`` counts as ``repro/sim``).
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return str(PurePosixPath(*parts[i:]))
    return path.name


class SourceModule:
    """One parsed source file plus everything rules need to scope it."""

    __slots__ = (
        "path",
        "display_path",
        "source",
        "tree",
        "package_path",
        "line_suppressions",
        "file_suppressions",
    )

    def __init__(self, path: Path, source: str, display_path: str | None = None):
        self.path = path
        self.display_path = display_path if display_path is not None else str(path)
        self.source = source
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.package_path = _package_path(path)
        per_line, file_wide = _parse_suppressions(source)
        self.line_suppressions = per_line
        self.file_suppressions = file_wide

    @classmethod
    def from_path(cls, path: Path, display_path: str | None = None) -> "SourceModule":
        return cls(path, path.read_text(encoding="utf-8"), display_path)

    @property
    def dotted_name(self) -> str:
        """``repro/sim/engine.py`` -> ``repro.sim.engine``."""
        p = PurePosixPath(self.package_path)
        stem = p.with_suffix("") if p.suffix == ".py" else p
        return ".".join(stem.parts)

    def in_package(self, *names: str) -> bool:
        """True if the module lives under ``repro/<name>/`` for any name."""
        return any(
            self.package_path.startswith(f"repro/{name}/") for name in names
        )

    def is_file(self, relpath: str) -> bool:
        """True if the module *is* ``repro/<relpath>`` (e.g. sim/engine.py)."""
        return self.package_path == f"repro/{relpath}"

    def suppressed(self, rule: str, line: int) -> bool:
        rule = rule.upper()
        if self.file_suppressions & ({rule} | _ALL):
            return True
        at_line = self.line_suppressions.get(line, frozenset())
        return bool(at_line & ({rule} | _ALL))

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule.id,
            message=message,
        )


class Rule:
    """Base class for per-module rules.

    Subclasses set ``id`` (``R<n>``), ``name`` (kebab-case slug) and
    ``description``, and implement :meth:`check`.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: SourceModule, run: "LintRun") -> Iterator[Finding]:
        raise NotImplementedError

    def project_check(self, run: "LintRun") -> Iterator[Finding]:
        """Repo-level pass; default none.  Overridden by ProjectRule."""
        return iter(())


class ProjectRule(Rule):
    """A rule that inspects the whole run (cross-file invariants)."""

    def check(self, module: SourceModule, run: "LintRun") -> Iterator[Finding]:
        return iter(())

    def project_check(self, run: "LintRun") -> Iterator[Finding]:
        raise NotImplementedError


@dataclass
class LintRun:
    """One linting pass over a set of modules."""

    modules: list[SourceModule]
    rules: Sequence[Rule]
    project_root: Path | None = None
    parse_errors: list[Finding] = field(default_factory=list)

    def module_by_file(self, relpath: str) -> SourceModule | None:
        for module in self.modules:
            if module.is_file(relpath):
                return module
        return None

    def execute(self) -> list[Finding]:
        """Run every rule over every module, honouring suppressions."""
        findings: list[Finding] = list(self.parse_errors)
        by_path = {m.display_path: m for m in self.modules}
        raw: list[Finding] = []
        for rule in self.rules:
            for module in self.modules:
                raw.extend(rule.check(module, self))
            raw.extend(rule.project_check(self))
        for f in raw:
            module = by_path.get(f.path)
            if module is not None and module.suppressed(f.rule, f.line):
                continue
            findings.append(f)
        return sorted(findings)


def all_rules() -> list[Rule]:
    """Instantiate the full registered rule set, in id order."""
    from repro.analysis.rules import ALL_RULES

    return [cls() for cls in ALL_RULES]


# --------------------------------------------------------------------------
# Shared AST helpers used by several rules.

#: Constructor names whose results are mutable containers.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict",
     "Counter", "bytearray"}
)


def dotted_call_name(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains -> ``"a.b.c"``; bare names -> ``"a"``."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def is_mutable_container(node: ast.expr) -> bool:
    """True if *node* evaluates to a (possibly nested) mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_call_name(node.func)
        if name is not None:
            return name.rpartition(".")[2] in _MUTABLE_CALLS
        return False
    if isinstance(node, ast.BinOp):
        # [0] * n, [x] + [y], n * [None] ...
        return is_mutable_container(node.left) or is_mutable_container(node.right)
    if isinstance(node, ast.IfExp):
        return is_mutable_container(node.body) or is_mutable_container(node.orelse)
    return False


def iter_imports(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical dotted origins for all imports.

    ``import time as t`` -> ``{"t": "time"}``;
    ``from random import shuffle`` -> ``{"shuffle": "random.shuffle"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                local = a.asname if a.asname else a.name.partition(".")[0]
                canonical = a.name if a.asname else a.name.partition(".")[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are repo-internal
            for a in node.names:
                local = a.asname if a.asname else a.name
                aliases[local] = f"{node.module}.{a.name}"
    return aliases


def decorator_names(node: ast.ClassDef | ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_call_name(target)
        if name is not None:
            names.add(name.rpartition(".")[2])
    return names


def base_names(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for b in cls.bases:
        name = dotted_call_name(b)
        if name is not None:
            names.add(name.rpartition(".")[2])
        elif isinstance(b, ast.Subscript):  # Protocol[...], Generic[T]
            inner = dotted_call_name(b.value)
            if inner is not None:
                names.add(inner.rpartition(".")[2])
    return names


def self_attr_target(node: ast.expr) -> str | None:
    """``self.x`` attribute expressions -> ``"x"``, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def assign_targets(stmt: ast.stmt) -> Iterable[ast.expr]:
    """Target expressions of Assign/AnnAssign/AugAssign statements."""
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            if isinstance(t, ast.Tuple):
                yield from t.elts
            else:
                yield t
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        yield stmt.target
