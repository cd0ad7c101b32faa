"""Exactness lint as a pass of the code-analyzer framework.

Layer contract: the exactness checks, emitted as the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model so `repro-lint-code`
reports exactness and lock-discipline findings in one format, one registry,
one ``--format json`` schema.

It runs one check:

* **X001** — ``float(...)`` coercions and float literals in arithmetic
  inside the counting hot paths (``worlds/counting.py``, ``cache.py``,
  ``compile.py``, ``parallel.py``), where degrees of belief are exact
  rationals by contract.  ``# exact-ok`` on the line waives a deliberate
  boundary.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from ..analysis.diagnostics import ERROR, Diagnostic, SourceSpan, diagnostic, register_codes

register_codes({"X001": (ERROR, "float-in-exact-hot-path")})

# The counting hot paths: float-free by contract.
HOT_PATHS = [
    "src/repro/worlds/counting.py",
    "src/repro/worlds/cache.py",
    "src/repro/worlds/compile.py",
    "src/repro/worlds/parallel.py",
]

EXACT_OK = "# exact-ok"


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


def exactness_diagnostics(root: Optional[Path] = None) -> List[Diagnostic]:
    """Every exactness violation in the repo at ``root``, as diagnostics."""
    repo = find_repo_root(root)
    findings: List[Diagnostic] = []
    for relative in HOT_PATHS:
        path = repo / relative
        if not path.exists():
            continue
        span_path = str(path.relative_to(repo))
        for line, column, message in _float_violations(path):
            findings.append(
                diagnostic("X001", message, span=SourceSpan(line=line, column=column, path=span_path))
            )
    return findings


__all__ = ["exactness_diagnostics", "find_repo_root"]
