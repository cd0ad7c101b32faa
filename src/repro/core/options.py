"""The unified engine-option surface: one typed, validated knob set.

Every layer that configures a :class:`~repro.core.engine.RandomWorlds` —
the constructor itself, :func:`repro.service.open_session`,
``SessionManager.open`` and the ``POST /v1/sessions`` wire payload, and the
``repro-serve`` command line — historically spelled the same handful of
knobs slightly differently.  :class:`EngineOptions` is the single source of
truth: a frozen dataclass whose field *metadata* drives the HTTP wire
whitelist (``wire=True``) and the generated CLI flags (``flag=...``), so the
three surfaces cannot drift from the engine signature.

Validation and normalisation live here and nowhere else:

* ``EngineOptions(...)`` coerces every field (ints, tuples, backend names)
  and rejects ``max_workers > 1`` without a backend to give the workers to.
* :meth:`EngineOptions.from_dict` / :meth:`EngineOptions.to_dict` round-trip
  losslessly through JSON.
* :meth:`EngineOptions.coerce_field` gives the wire layer per-key coercion
  for *partial* payloads (cross-field checks run once defaults are merged).
* :func:`add_engine_cli_arguments` / :func:`engine_options_from_args`
  generate the ``repro-serve`` flags from the same metadata.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..logic.tolerance import ToleranceVector
from ..worlds.cache import DEFAULT_MEMO_SIZE
from ..worlds.parallel import BACKENDS

__all__ = [
    "EngineOptions",
    "add_engine_cli_arguments",
    "engine_options_from_args",
]


def _coerce_backend(value: Any) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, str) and value in BACKENDS:
        return value
    raise ValueError(f"unknown counting backend {value!r}; expected one of {BACKENDS}")


def _coerce_positive_int(value: Any, name: str) -> Optional[int]:
    if value is None:
        return None
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < 1:
        raise ValueError(f"{name} must be positive, got {number}")
    return number


def _coerce_domain_sizes(value: Any) -> Optional[Tuple[int, ...]]:
    if value is None:
        return None
    try:
        sizes = tuple(int(size) for size in value)
    except (TypeError, ValueError):
        raise ValueError(f"domain_sizes must be a sequence of integers, got {value!r}") from None
    if not sizes:
        raise ValueError("domain_sizes must name at least one domain size")
    if any(size < 1 for size in sizes):
        raise ValueError(f"domain sizes must be positive, got {sizes}")
    return sizes


def _coerce_tolerances(value: Any) -> Optional[Tuple[float, ...]]:
    if value is None:
        return None
    try:
        taus = tuple(float(tau) for tau in value)
    except (TypeError, ValueError):
        raise ValueError(f"tolerances must be a sequence of numbers, got {value!r}") from None
    if not taus:
        raise ValueError("tolerances must name at least one tolerance")
    if any(tau <= 0 for tau in taus):
        raise ValueError(f"tolerances must be positive, got {taus}")
    return taus


@dataclass(frozen=True)
class EngineOptions:
    """Validated, immutable engine configuration.

    Field metadata keys:

    ``wire``
        The field is accepted in the ``engine`` object of a
        ``POST /v1/sessions`` payload (the HTTP whitelist is derived from
        this, see :meth:`wire_option_names`).
    ``flag`` / ``kind``
        The ``repro-serve`` flag spelling and its argparse shape
        (``choice`` / ``int`` / ``int-list`` / ``float-list`` /
        ``negated-flag`` — the last renders ``--no-<field>`` style switches
        for boolean fields that default to on).
    """

    backend: Optional[str] = field(
        default=None,
        metadata={
            "wire": True,
            "flag": "--backend",
            "kind": "choice",
            "choices": BACKENDS,
            "help": "counting backend for exact enumeration (default: serial)",
        },
    )
    max_workers: Optional[int] = field(
        default=None,
        metadata={
            "wire": True,
            "flag": "--max-workers",
            "kind": "int",
            "help": "worker-pool width for the processes backend",
        },
    )
    memo: bool = field(
        default=True,
        metadata={
            "wire": True,
            "flag": "--no-memo",
            "kind": "negated-flag",
            "help": "disable the per-query memo table",
        },
    )
    memo_size: Optional[int] = field(
        default=DEFAULT_MEMO_SIZE,
        metadata={
            "wire": True,
            "flag": "--memo-size",
            "kind": "int",
            "help": f"LRU bound of the per-query memo table (default {DEFAULT_MEMO_SIZE} rows)",
        },
    )
    compile: bool = field(
        default=True,
        metadata={
            "wire": True,
            "flag": "--no-compile",
            "kind": "negated-flag",
            "help": "disable the compiled query-evaluation kernel (interpreted walks only)",
        },
    )
    domain_sizes: Optional[Tuple[int, ...]] = field(
        default=None,
        metadata={
            "wire": True,
            "flag": "--domain-sizes",
            "kind": "int-list",
            "metavar": "N,N,...",
            "help": "domain-size schedule for the counting grid, e.g. 8,12,16,24,32",
        },
    )
    tolerances: Optional[Tuple[float, ...]] = field(
        default=None,
        metadata={
            "wire": True,
            "flag": "--tolerances",
            "kind": "float-list",
            "metavar": "T,T,...",
            "help": "uniform tolerance ladder, e.g. 0.2,0.1,0.05",
        },
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", _coerce_backend(self.backend))
        object.__setattr__(self, "max_workers", _coerce_positive_int(self.max_workers, "max_workers"))
        object.__setattr__(self, "memo", bool(self.memo))
        object.__setattr__(self, "memo_size", _coerce_positive_int(self.memo_size, "memo_size"))
        object.__setattr__(self, "compile", bool(self.compile))
        object.__setattr__(self, "domain_sizes", _coerce_domain_sizes(self.domain_sizes))
        object.__setattr__(self, "tolerances", _coerce_tolerances(self.tolerances))
        if self.backend is None and (self.max_workers or 0) > 1:
            raise ValueError(
                "max_workers > 1 needs an explicit counting backend; pass "
                'backend="processes" for a worker pool'
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineOptions":
        """Build options from a (possibly partial) mapping, validating keys."""
        unknown = sorted(set(payload) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(
                f"unknown engine option(s): {', '.join(unknown)}; "
                f"expected a subset of {', '.join(cls.wire_option_names())}"
            )
        return cls(**dict(payload))

    @classmethod
    def from_legacy(
        cls,
        *,
        backend: Any = None,
        max_workers: Any = None,
        memo: Any = True,
        memo_size: Any = DEFAULT_MEMO_SIZE,
        compile: Any = True,
        domain_sizes: Any = None,
        tolerances: Any = None,
    ) -> "EngineOptions":
        """Normalise the old keyword spellings, including their rich values.

        ``RandomWorlds`` keeps accepting executor instances for ``backend``,
        a ``QueryMemoTable`` for ``memo`` and ``ToleranceVector`` ladders for
        ``tolerances``; this maps each onto the typed field (the engine keeps
        the rich object itself — the options record its spirit).
        """
        if backend is not None and not isinstance(backend, str):
            backend = getattr(backend, "name", None)
        if not isinstance(memo, bool):
            # A QueryMemoTable instance means "memo on" even while empty
            # (len() == 0 makes it falsy); None/0 keep their falsy meaning.
            memo = True if hasattr(memo, "get_or_compute") else bool(memo)
        flat_tolerances: Optional[Tuple[float, ...]] = None
        if tolerances is not None:
            flat = []
            for item in tolerances:
                if isinstance(item, ToleranceVector):
                    if item.values:
                        # Per-index ladders have no flat spelling; the engine
                        # keeps the vectors, the options simply omit them.
                        flat = None
                        break
                    flat.append(float(item.default))
                else:
                    flat.append(float(item))
            flat_tolerances = tuple(flat) if flat else None
        return cls(
            backend=backend,
            max_workers=max_workers,
            memo=memo,
            memo_size=memo_size,
            compile=compile,
            domain_sizes=domain_sizes,
            tolerances=flat_tolerances,
        )

    # -- projection ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able form; ``from_dict`` inverts it exactly."""
        return {
            "backend": self.backend,
            "max_workers": self.max_workers,
            "memo": self.memo,
            "memo_size": self.memo_size,
            "compile": self.compile,
            "domain_sizes": list(self.domain_sizes) if self.domain_sizes is not None else None,
            "tolerances": list(self.tolerances) if self.tolerances is not None else None,
        }

    def to_field_dict(self) -> Dict[str, Any]:
        """Typed field values (tuples intact) — the merge-friendly kwargs form."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def replace(self, **changes: Any) -> "EngineOptions":
        return dataclasses.replace(self, **changes)

    # -- schema -------------------------------------------------------------

    @classmethod
    def wire_option_names(cls) -> Tuple[str, ...]:
        """Field names accepted on the HTTP wire, in sorted order."""
        return tuple(sorted(f.name for f in dataclasses.fields(cls) if f.metadata.get("wire")))

    @classmethod
    def coerce_field(cls, name: str, value: Any) -> Any:
        """Coerce/validate one field value in isolation (wire partial payloads)."""
        coercers = {
            "backend": _coerce_backend,
            "max_workers": lambda v: _coerce_positive_int(v, "max_workers"),
            "memo": bool,
            "memo_size": lambda v: _coerce_positive_int(v, "memo_size"),
            "compile": bool,
            "domain_sizes": _coerce_domain_sizes,
            "tolerances": _coerce_tolerances,
        }
        try:
            coerce = coercers[name]
        except KeyError:
            raise ValueError(
                f"unknown engine option {name!r}; "
                f"expected one of {', '.join(cls.wire_option_names())}"
            ) from None
        return coerce(value)


# ---------------------------------------------------------------------------
# Metadata-generated CLI flags (repro-serve)
# ---------------------------------------------------------------------------


def _int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _negated_dest(field_name: str) -> str:
    return f"no_{field_name}"


def add_engine_cli_arguments(parser: argparse.ArgumentParser) -> None:
    """Add one flag per wire-exposed :class:`EngineOptions` field.

    The flag spelling, argparse shape and help text all come from the field
    metadata, so the CLI cannot drift from the engine signature.
    """
    for f in dataclasses.fields(EngineOptions):
        meta = f.metadata
        flag = meta.get("flag")
        if flag is None:
            continue
        kind = meta["kind"]
        if kind == "negated-flag":
            parser.add_argument(
                flag, action="store_true", dest=_negated_dest(f.name), help=meta["help"]
            )
        elif kind == "choice":
            parser.add_argument(
                flag, choices=meta["choices"], default=None, dest=f.name, help=meta["help"]
            )
        elif kind == "int":
            parser.add_argument(flag, type=int, default=None, dest=f.name, help=meta["help"])
        elif kind == "int-list":
            parser.add_argument(
                flag,
                type=_int_list,
                default=None,
                dest=f.name,
                metavar=meta.get("metavar"),
                help=meta["help"],
            )
        elif kind == "float-list":
            parser.add_argument(
                flag,
                type=_float_list,
                default=None,
                dest=f.name,
                metavar=meta.get("metavar"),
                help=meta["help"],
            )
        else:  # pragma: no cover - metadata typo guard
            raise AssertionError(f"unknown CLI kind {kind!r} for EngineOptions.{f.name}")


def engine_options_from_args(args: argparse.Namespace) -> Dict[str, Any]:
    """Collect the engine options a parsed command line actually set.

    Returns only the provided keys (so server-side defaults still apply),
    after running the combination through ``EngineOptions`` once for full
    cross-field validation.
    """
    provided: Dict[str, Any] = {}
    for f in dataclasses.fields(EngineOptions):
        meta = f.metadata
        if meta.get("flag") is None:
            continue
        if meta["kind"] == "negated-flag":
            if getattr(args, _negated_dest(f.name), False):
                provided[f.name] = False
        else:
            value = getattr(args, f.name, None)
            if value is not None:
                provided[f.name] = value
    if provided:
        EngineOptions.from_dict(provided)
    return provided
