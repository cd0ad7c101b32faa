"""Exactness lint as a pass of the code-analyzer framework.

Layer contract: the exactness checks, emitted as the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model so `repro-lint-code`
reports exactness and lock-discipline findings in one format, one registry,
one ``--format json`` schema.

The checks are unchanged:

* **X001** — ``float(...)`` coercions and float literals in arithmetic
  inside the counting hot paths (``worlds/counting.py``, ``cache.py``,
  ``compile.py``, ``parallel.py``), where degrees of belief are exact
  rationals by contract.  ``# exact-ok`` on the line waives a deliberate
  boundary.
* **X002** — the retired bare ``max_workers=N`` (N > 1) spelling without an
  explicit ``backend=`` in the same call, in Python sources under ``src/``
  and ``examples/`` and in fenced python blocks of README and ``docs/*.md``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from ..analysis.diagnostics import ERROR, Diagnostic, SourceSpan, diagnostic, register_codes

register_codes(
    {
        "X001": (ERROR, "float-in-exact-hot-path"),
        "X002": (ERROR, "bare-max-workers"),
    }
)

# The counting hot paths: float-free by contract.
HOT_PATHS = [
    "src/repro/worlds/counting.py",
    "src/repro/worlds/cache.py",
    "src/repro/worlds/compile.py",
    "src/repro/worlds/parallel.py",
]

# Where the retired bare-max_workers spelling is checked.
WORKER_SOURCE_ROOTS = ["src", "examples"]

EXACT_OK = "# exact-ok"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_DOC_WORKERS = re.compile(r"max_workers\s*=\s*(\d+)")


def find_repo_root(start: Optional[Path] = None) -> Path:
    """The nearest ancestor carrying ``pyproject.toml`` (else ``start``)."""
    current = (start or Path.cwd()).resolve()
    for candidate in [current, *current.parents]:
        if (candidate / "pyproject.toml").exists():
            return candidate
    return current


def _ok_lines(source: str) -> set:
    return {
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if EXACT_OK in line
    }


def _float_violations(path: Path) -> Iterator[Tuple[int, int, str]]:
    source = path.read_text(encoding="utf-8")
    waived = _ok_lines(source)
    tree = ast.parse(source, filename=str(path))
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in waived:
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield node.lineno, node.col_offset + 1, (
                "float() coercion in a counting hot path; keep Fractions exact "
                "(or mark a deliberate boundary with '# exact-ok')"
            )
        elif isinstance(node, ast.BinOp):
            for side in (node.left, node.right):
                if isinstance(side, ast.Constant) and isinstance(side.value, float):
                    yield side.lineno, side.col_offset + 1, (
                        f"float literal {side.value!r} in arithmetic in a counting "
                        "hot path; use Fraction (or mark with '# exact-ok')"
                    )


def _worker_violations(path: Path) -> Iterator[Tuple[int, int, str]]:
    source = path.read_text(encoding="utf-8")
    waived = _ok_lines(source)
    tree = ast.parse(source, filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = {kw.arg for kw in node.keywords if kw.arg}
        if "backend" in keywords or "options" in keywords:
            continue
        for kw in node.keywords:
            if kw.arg != "max_workers" or kw.lineno in waived:
                continue
            value = kw.value
            if isinstance(value, ast.Constant) and isinstance(value.value, int) and value.value > 1:
                yield kw.lineno, kw.col_offset + 1, (
                    f"bare max_workers={value.value} without an explicit backend= "
                    "(the implied-threads spelling is retired); pass "
                    "backend=\"threads\" alongside it"
                )


def _doc_violations(path: Path) -> Iterator[Tuple[int, int, str]]:
    text = path.read_text(encoding="utf-8")
    for fence in _FENCE.finditer(text):
        block = fence.group(1)
        if "backend" in block:
            continue
        for match in _DOC_WORKERS.finditer(block):
            if int(match.group(1)) <= 1:
                continue
            line = text.count("\n", 0, fence.start(1) + match.start()) + 1
            yield line, 1, (
                f"fenced python block sets max_workers={match.group(1)} without "
                "backend=; documented examples must use the explicit spelling"
            )


def exactness_diagnostics(root: Optional[Path] = None) -> List[Diagnostic]:
    """Every exactness violation in the repo at ``root``, as diagnostics."""
    repo = find_repo_root(root)
    findings: List[Diagnostic] = []

    def emit(code: str, path: Path, line: int, column: int, message: str) -> None:
        findings.append(
            diagnostic(
                code,
                message,
                span=SourceSpan(line=line, column=column, path=str(path.relative_to(repo))),
            )
        )

    for relative in HOT_PATHS:
        path = repo / relative
        if not path.exists():
            continue
        for line, column, message in _float_violations(path):
            emit("X001", path, line, column, message)
    for relative in WORKER_SOURCE_ROOTS:
        source_root = repo / relative
        if not source_root.exists():
            continue
        for path in sorted(source_root.rglob("*.py")):
            for line, column, message in _worker_violations(path):
                emit("X002", path, line, column, message)
    doc_files = [repo / "README.md", *sorted((repo / "docs").glob("*.md"))]
    for path in doc_files:
        if not path.exists():
            continue
        for line, column, message in _doc_violations(path):
            emit("X002", path, line, column, message)
    return findings


__all__ = ["exactness_diagnostics", "find_repo_root"]
