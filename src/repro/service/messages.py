"""The serializable request/response surface of the belief service.

Layer contract: this module owns the wire-facing data shapes and their
lossless JSON codec, and nothing else — no dispatch (``registry``), no
session state (``session``), no inference.  Everything the HTTP layer
serves is exactly what these dataclasses ``to_dict()`` to.

Every inference family — random worlds with its auto-dispatch, maximum
entropy, the reference-class baselines, the default-reasoning systems —
answers through the same pair of frozen dataclasses: a :class:`QueryRequest`
goes into :meth:`BeliefSession.submit`, a :class:`BeliefResponse` comes back.
Both round-trip losslessly through ``to_dict()`` / ``from_dict()`` so a
service front-end can speak JSON while the in-process API keeps exact values:
``Fraction`` diagnostics, tuples, non-finite floats and non-string dictionary
keys all survive the trip (see :func:`encode_value` for the tagged encoding).

Payload values outside the encodable set degrade to :class:`Opaque` wrappers
carrying their ``repr`` — deterministic and stable under repeated round
trips, but no longer the original object.  Formulas are encoded by their
textual form and re-parsed on decode, which is lossless for the ordinary
query fragment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..core.result import BeliefResult
from ..logic.parser import ParseError, parse
from ..logic.syntax import Formula

SCHEMA_VERSION = 1

_FRACTION = "__fraction__"
_TUPLE = "__tuple__"
_FLOAT = "__float__"
_FORMULA = "__formula__"
_OPAQUE = "__opaque__"
_ITEMS = "__items__"


@dataclass(frozen=True)
class Opaque:
    """A payload value that could not be encoded structurally.

    Holds the ``repr`` of the original object; decoding an opaque payload
    yields the wrapper itself, so a second round trip is the identity.
    """

    text: str


def encode_value(value: Any) -> Any:
    """Encode a diagnostics payload value into JSON-compatible primitives.

    Handles ``None``/bool/int/str natively, floats with tagged non-finite
    values, ``Fraction`` (exact numerator/denominator), tuples, lists,
    dictionaries (string-keyed ones stay dictionaries; others become tagged
    item lists), formulas (textual form) and :class:`Opaque` wrappers.  Any
    other object becomes ``Opaque(repr(value))``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {_FLOAT: repr(value)}
    if isinstance(value, Fraction):
        return {_FRACTION: [value.numerator, value.denominator]}
    if isinstance(value, tuple):
        return {_TUPLE: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, Mapping):
        if all(isinstance(key, str) and not key.startswith("__") for key in value):
            return {key: encode_value(item) for key, item in value.items()}
        return {_ITEMS: [[encode_value(key), encode_value(item)] for key, item in value.items()]}
    if isinstance(value, Formula):
        return {_FORMULA: repr(value)}
    if isinstance(value, Opaque):
        return {_OPAQUE: value.text}
    return {_OPAQUE: repr(value)}


def decode_value(payload: Any) -> Any:
    """Invert :func:`encode_value`."""
    if payload is None or isinstance(payload, (bool, int, str, float)):
        return payload
    if isinstance(payload, list):
        return [decode_value(item) for item in payload]
    if isinstance(payload, Mapping):
        if _FLOAT in payload:
            return float(payload[_FLOAT])
        if _FRACTION in payload:
            numerator, denominator = payload[_FRACTION]
            return Fraction(int(numerator), int(denominator))
        if _TUPLE in payload:
            return tuple(decode_value(item) for item in payload[_TUPLE])
        if _FORMULA in payload:
            try:
                return parse(payload[_FORMULA])
            except ParseError:
                return Opaque(payload[_FORMULA])
        if _OPAQUE in payload:
            return Opaque(payload[_OPAQUE])
        if _ITEMS in payload:
            return {decode_value(key): decode_value(item) for key, item in payload[_ITEMS]}
        return {key: decode_value(item) for key, item in payload.items()}
    raise ValueError(f"cannot decode payload of type {type(payload).__name__}: {payload!r}")


def result_to_dict(result: BeliefResult) -> Dict[str, Any]:
    """Serialize a :class:`BeliefResult` (shared by responses and the wire format)."""
    return {
        "value": encode_value(result.value),
        "interval": encode_value(result.interval),
        "exists": result.exists,
        "method": result.method,
        "diagnostics": encode_value(result.diagnostics),
        "note": result.note,
    }


def result_from_dict(payload: Mapping[str, Any]) -> BeliefResult:
    """Rebuild a :class:`BeliefResult` serialized by :func:`result_to_dict`."""
    return BeliefResult(
        value=decode_value(payload["value"]),
        interval=decode_value(payload["interval"]),
        exists=payload["exists"],
        method=payload["method"],
        diagnostics=decode_value(payload["diagnostics"]),
        note=payload["note"],
    )


@dataclass(frozen=True)
class QueryRequest:
    """One query against a session's knowledge base.

    Attributes
    ----------
    query:
        The closed query sentence, as text or a parsed formula.  Text is kept
        verbatim (and parsed lazily), so serialization is exact.
    method:
        A solver-registry key (``"auto"``, ``"maxent"``,
        ``"reference-class:kyburg"``, ``"defaults:system-z"``, ...).  See
        :meth:`repro.service.SolverRegistry.keys`.
    request_id:
        Caller-chosen correlation id, echoed on the response.  Empty means
        the session assigns a sequential one.
    tolerances:
        Optional per-request override of the engine's shrinking tolerance
        ladder, as the ``default`` value of each uniform tolerance vector.
    domain_sizes:
        Optional per-request override of the counting engine's domain-size
        schedule.
    metadata:
        Free-form caller payload, echoed on the response.
    """

    query: Union[str, Formula]
    method: str = "auto"
    request_id: str = ""
    tolerances: Optional[Tuple[float, ...]] = None
    domain_sizes: Optional[Tuple[int, ...]] = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tolerances is not None:
            object.__setattr__(self, "tolerances", tuple(float(t) for t in self.tolerances))
        if self.domain_sizes is not None:
            object.__setattr__(self, "domain_sizes", tuple(int(n) for n in self.domain_sizes))
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def formula(self) -> Formula:
        """The parsed query sentence."""
        return parse(self.query) if isinstance(self.query, str) else self.query

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "query": self.query if isinstance(self.query, str) else encode_value(self.query),
            "method": self.method,
            "request_id": self.request_id,
            "tolerances": encode_value(self.tolerances),
            "domain_sizes": encode_value(self.domain_sizes),
            "metadata": encode_value(dict(self.metadata)),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        return cls(
            query=decode_value(payload["query"]),
            method=payload.get("method", "auto"),
            request_id=payload.get("request_id", ""),
            tolerances=decode_value(payload.get("tolerances")),
            domain_sizes=decode_value(payload.get("domain_sizes")),
            metadata=decode_value(payload.get("metadata") or {}),
        )


@dataclass(frozen=True)
class CacheDelta:
    """World-count cache / query-memo counter movement caused by one request.

    Attribution is exact: the session installs a per-request
    :class:`~repro.worlds.cache.CacheEventLog` around each solve, so a
    request is charged precisely the events its own evaluation caused even
    under concurrent ``submit`` calls.  :meth:`between` remains for comparing
    two :class:`~repro.worlds.cache.CacheInfo` snapshots taken by the caller.
    """

    hits: int = 0
    misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0

    @classmethod
    def between(cls, before, after) -> "CacheDelta":
        """The counter movement between two :class:`CacheInfo` snapshots."""
        return cls(
            hits=after.hits - before.hits,
            misses=after.misses - before.misses,
            memo_hits=after.memo_hits - before.memo_hits,
            memo_misses=after.memo_misses - before.memo_misses,
        )

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, int]) -> "CacheDelta":
        return cls(**{key: int(payload[key]) for key in ("hits", "misses", "memo_hits", "memo_misses")})


@dataclass(frozen=True)
class BeliefResponse:
    """The answer to one :class:`QueryRequest`.

    Wraps the :class:`BeliefResult` with its provenance: the solver-registry
    key that produced it, wall-clock timing, the cache/memo counter delta the
    request caused, and the request's correlation id and metadata.
    """

    request_id: str
    result: BeliefResult
    solver: str
    elapsed_ms: float
    cache_delta: Optional[CacheDelta] = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def value(self) -> Optional[float]:
        """Shortcut to ``result.value``."""
        return self.result.value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "request_id": self.request_id,
            "solver": self.solver,
            "elapsed_ms": self.elapsed_ms,
            "result": result_to_dict(self.result),
            "cache_delta": self.cache_delta.to_dict() if self.cache_delta is not None else None,
            "metadata": encode_value(dict(self.metadata)),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BeliefResponse":
        delta = payload.get("cache_delta")
        return cls(
            request_id=payload["request_id"],
            result=result_from_dict(payload["result"]),
            solver=payload["solver"],
            elapsed_ms=payload["elapsed_ms"],
            cache_delta=CacheDelta.from_dict(delta) if delta is not None else None,
            metadata=decode_value(payload.get("metadata") or {}),
        )


@dataclass(frozen=True)
class ErrorResponse:
    """A per-request failure inside a streamed batch.

    ``BeliefSession.stream`` (and the HTTP ``/stream`` route) answers a
    request whose evaluation failed with one of these instead of tearing
    down the whole iterator: the remaining requests still complete in
    submission order.  ``code`` uses the same vocabulary as the HTTP error
    model (``bad-request``, ``query-failed``, ``unsupported-request``,
    ``analysis-failed``, ``inconsistent-kb`` — see docs/DEPLOYMENT.md), so
    a streamed error row and a non-streamed HTTP error describe the same
    failure with the same words.
    """

    request_id: str
    code: str
    message: str
    elapsed_ms: float = 0.0
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", dict(self.metadata))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "request_id": self.request_id,
            "error": {"code": self.code, "message": self.message},
            "elapsed_ms": self.elapsed_ms,
            "metadata": encode_value(dict(self.metadata)),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ErrorResponse":
        error = payload.get("error") or {}
        return cls(
            request_id=payload.get("request_id", ""),
            code=error.get("code", "error"),
            message=error.get("message", ""),
            elapsed_ms=payload.get("elapsed_ms", 0.0),
            metadata=decode_value(payload.get("metadata") or {}),
        )


def response_from_dict(payload: Mapping[str, Any]) -> Union[BeliefResponse, ErrorResponse]:
    """Rebuild whichever response row ``payload`` serializes.

    Streamed NDJSON rows interleave :class:`BeliefResponse` and
    :class:`ErrorResponse` objects; the ``"error"`` key discriminates.
    """
    if "error" in payload:
        return ErrorResponse.from_dict(payload)
    return BeliefResponse.from_dict(payload)
