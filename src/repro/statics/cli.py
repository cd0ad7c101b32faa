"""``repro-lint-code``: the code-level analyzers as one command-line gate.

Layer contract: path walking, pass selection, output format and exit-code
policy only — findings come from :mod:`repro.statics.locks` (lock
discipline, C6xx/C7xx) and :mod:`repro.statics.exactness` (the X00x
checks), so the CLI can never disagree
with the library entry points the tests call directly.

Where ``repro-lint`` analyzes the *knowledge bases* embedded in the code,
``repro-lint-code`` analyzes the *code itself*; CI runs both.  Output is
the same ruff-style line format::

    src/repro/worlds/cache.py:532:18 C601 blocking call ... while holding ...

or, with ``--format json``, one JSON object per line (the summary goes to
stderr so stdout stays parseable).  Exit code 1 when any error-level
finding fired; warnings print but do not fail the gate.
``docs/CONCURRENCY.md`` documents the codes and suppression conventions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..analysis.diagnostics import Diagnostic, json_object
from .exactness import exactness_diagnostics, find_repo_root
from .locks import lint_paths


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint-code`` argument parser (exposed for the docs checks)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint-code",
        description="Statically analyze the codebase itself: lock discipline "
        "(blocking calls under locks, lock-order cycles and inversions, "
        "unguarded shared fields, locks held across yield; C6xx/C7xx) plus "
        "the exactness checks (X00x). Prints ruff-style coded diagnostics "
        "and exits non-zero on error-level findings.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tools"],
        metavar="PATH",
        help="Python files or directories to lock-lint as one corpus (default: src tools)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="format",
        help="text = ruff-style lines; json = one diagnostic object per line on stdout",
    )
    parser.add_argument(
        "--errors-only",
        action="store_true",
        help="print only error-level findings (exit code is unchanged)",
    )
    parser.add_argument(
        "--no-exactness",
        action="store_true",
        help="skip the repo-rooted exactness pass (lock discipline only)",
    )
    return parser


def collect_findings(paths: List[str], *, exactness: bool = True) -> List[Diagnostic]:
    """Every finding of every enabled pass, in report order."""
    findings = lint_paths(paths)
    if exactness:
        findings.extend(exactness_diagnostics(find_repo_root()))
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for raw in args.paths:
        if not Path(raw).exists():
            print(f"repro-lint-code: no such path: {raw}", file=sys.stderr)
            return 1
    findings = collect_findings(list(args.paths), exactness=not args.no_exactness)
    errors = warnings = 0
    for finding in findings:
        if finding.is_error:
            errors += 1
        else:
            warnings += 1
        if args.errors_only and not finding.is_error:
            continue
        if args.format == "json":
            print(json.dumps(json_object(finding), sort_keys=True))
        else:
            print(finding.format())
    summary = f"{errors} error(s), {warnings} warning(s)"
    print(summary, file=sys.stderr if args.format == "json" else sys.stdout)
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
