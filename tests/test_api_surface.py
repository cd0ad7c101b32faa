"""Public-API snapshot: the exported names and signatures of the service.

These tests freeze the surface of ``repro.service``, ``repro.server`` and
``repro.core`` — the modules external callers program against.  A failing
test here means the public API drifted; either restore compatibility or
update the snapshot *and* ``docs/API.md`` / ``docs/DEPLOYMENT.md``
together, deliberately.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json

import pytest

import repro.core as core
import repro.obs as obs
import repro.server as server
import repro.service as service
from repro.server.cli import build_parser as serve_parser

# ---------------------------------------------------------------------------
# Exported names
# ---------------------------------------------------------------------------

SERVICE_EXPORTS = [
    "BeliefResponse",
    "BeliefSession",
    "CacheDelta",
    "DefaultProblem",
    "ErrorResponse",
    "Opaque",
    "QueryRequest",
    "SCHEMA_VERSION",
    "Solver",
    "SolverRegistry",
    "UnsupportedRequest",
    "build_default_registry",
    "check_consistency",
    "decode_value",
    "default_registry",
    "encode_value",
    "extract_default_problem",
    "kb_fingerprint",
    "open_session",
    "response_from_dict",
    "result_from_dict",
    "result_to_dict",
]

OBS_EXPORTS = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]

CORE_EXPORTS = [
    "BeliefResult",
    "CacheInfo",
    "DefaultConclusion",
    "DefaultReasoner",
    "DirectInferenceMatch",
    "EngineOptions",
    "GroundContext",
    "KnowledgeBase",
    "POINT_TOLERANCE",
    "PropertyCheckResult",
    "RandomWorlds",
    "RandomWorldsError",
    "StatisticalAssertion",
    "WorldCountCache",
    "add_engine_cli_arguments",
    "check_and",
    "check_cautious_monotonicity",
    "check_conditioning_invariance",
    "check_cut",
    "check_left_logical_equivalence",
    "check_or",
    "check_rational_monotonicity",
    "check_reflexivity",
    "check_right_weakening",
    "class_relation",
    "combination",
    "combination_inference",
    "defaults",
    "direct_inference",
    "engine",
    "engine_options_from_args",
    "entailment",
    "entails_membership",
    "find_matches",
    "independence",
    "independence_inference",
    "kb_entails_ground",
    "knowledge_base",
    "options",
    "properties",
    "result",
    "specificity",
    "specificity_inference",
    "split_independent",
    "strength",
    "strength_inference",
]

SERVER_EXPORTS = [
    "BeliefHTTPServer",
    "BeliefRequestHandler",
    "Client",
    "ExpiredSession",
    "ManagedSession",
    "Overloaded",
    "ROUTES",
    "ServerError",
    "SessionManager",
    "UnknownSession",
    "WIRE_ENGINE_OPTIONS",
    "kb_payload",
    "make_server",
    "normalise_engine_options",
    "route_paths",
    "serve_in_background",
]

# The served HTTP surface, as (method, path template) pairs.  Changing a
# route means updating docs/DEPLOYMENT.md and the docs-freshness curl
# validation along with this snapshot.
SERVER_ROUTES = [
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("POST", "/v1/sessions"),
    ("GET", "/v1/sessions/{id}"),
    ("POST", "/v1/sessions/{id}/query"),
    ("POST", "/v1/sessions/{id}/query_batch"),
    ("POST", "/v1/sessions/{id}/stream"),
    ("GET", "/v1/sessions/{id}/cache"),
    ("POST", "/v1/analyze"),
]

SOLVER_KEYS = [
    "defaults:epsilon",
    "defaults:maxent",
    "defaults:system-z",
    "random-worlds",
    "random-worlds:analytic",
    "random-worlds:counting",
    "random-worlds:independence",
    "random-worlds:maxent",
    "reference-class:kyburg",
    "reference-class:reichenbach",
]

SOLVER_ALIASES = {
    "auto": "random-worlds",
    "independence": "random-worlds:independence",
    "analytic": "random-worlds:analytic",
    "maxent": "random-worlds:maxent",
    "counting": "random-worlds:counting",
}

# ---------------------------------------------------------------------------
# Signatures (rendered with inspect.signature; stringly-frozen on purpose)
# ---------------------------------------------------------------------------

SIGNATURES = {
    (core.RandomWorlds, "__init__"): (
        "(self, tolerances: 'Optional[Iterable[ToleranceVector]]' = None, "
        "domain_sizes: 'Optional[Sequence[int]]' = None, counting_fallback: 'bool' = True, "
        "assume_small_overlap: 'bool' = False, cache: 'Union[WorldCountCache, bool, None]' = True, "
        "memo: 'Union[QueryMemoTable, bool, None]' = True, memo_size: 'Optional[int]' = 4096, "
        "backend: 'BackendLike' = None, max_workers: 'Optional[int]' = None, "
        "compile: 'bool' = True, options: 'Optional[EngineOptions]' = None)"
    ),
    (core.RandomWorlds, "degree_of_belief"): (
        "(self, query: 'QueryLike', knowledge_base: 'KnowledgeBaseLike', "
        "method: 'str' = 'auto') -> 'BeliefResult'"
    ),
    (core.RandomWorlds, "degree_of_belief_batch"): (
        "(self, queries: 'Sequence[QueryLike]', knowledge_base: 'KnowledgeBaseLike', "
        "method: 'str' = 'auto') -> 'List[BeliefResult]'"
    ),
    (core.RandomWorlds, "dispatch"): (
        "(self, query: 'QueryLike', knowledge_base: 'KnowledgeBaseLike', "
        "method: 'str' = 'auto') -> 'BeliefResult'"
    ),
    (service.BeliefSession, "submit"): "(self, request: 'RequestLike') -> 'BeliefResponse'",
    (service.BeliefSession, "submit_many"): (
        "(self, requests: 'Sequence[RequestLike]') -> 'List[BeliefResponse]'"
    ),
    (service.BeliefSession, "stream"): (
        "(self, requests: 'Iterable[RequestLike]', *, on_error: 'str' = 'respond') "
        "-> 'Iterator[Union[BeliefResponse, ErrorResponse]]'"
    ),
    (service, "open_session"): (
        "(knowledge_base: 'KnowledgeBaseLike', *, engine: 'Optional[RandomWorlds]' = None, "
        "registry: 'Optional[SolverRegistry]' = None, consistency_check: 'bool' = True, "
        "analyze: 'str' = 'off', metrics: 'Optional[MetricsRegistry]' = None, "
        "**engine_options: 'Any') -> 'BeliefSession'"
    ),
    (server.SessionManager, "open"): (
        "(self, knowledge_base: 'KnowledgeBaseLike', *, "
        "engine_options: 'Union[EngineOptions, Dict[str, Any], None]' = None, "
        "consistency_check: 'Optional[bool]' = None, "
        "analyze: 'Optional[str]' = None) -> 'Tuple[ManagedSession, bool]'"
    ),
    (server.SessionManager, "lease"): "(self, session_id: 'str') -> 'Iterator[BeliefSession]'",
    (server.Client, "query"): (
        "(self, session_id: 'str', request: 'RequestLike') -> 'BeliefResponse'"
    ),
    (server.Client, "query_batch"): (
        "(self, session_id: 'str', requests: 'Sequence[RequestLike]') -> 'List[BeliefResponse]'"
    ),
    (server, "make_server"): (
        "(host: 'str' = '127.0.0.1', port: 'int' = 0, "
        "manager: 'Optional[SessionManager]' = None, *, verbose: 'bool' = False, "
        "request_timeout: 'float' = 30.0, "
        "**manager_options: 'Any') -> 'BeliefHTTPServer'"
    ),
    (server.Client, "stream"): (
        "(self, session_id: 'str', requests: 'Iterable[RequestLike]') "
        "-> 'Iterator[Union[BeliefResponse, ErrorResponse]]'"
    ),
}

REQUEST_FIELDS = ["query", "method", "request_id", "tolerances", "domain_sizes", "metadata"]
RESPONSE_FIELDS = ["request_id", "result", "solver", "elapsed_ms", "cache_delta", "metadata"]
ERROR_RESPONSE_FIELDS = ["request_id", "code", "message", "elapsed_ms", "metadata"]
RESULT_FIELDS = ["value", "interval", "exists", "method", "diagnostics", "note"]

# ---------------------------------------------------------------------------
# EngineOptions schema (field order, defaults, wire whitelist, CLI flags)
# ---------------------------------------------------------------------------

# One row per EngineOptions field, in declaration order:
# (name, default, on the HTTP wire, repro-serve flag).  The wire whitelist
# and CLI flags are *generated* from the field metadata, so this snapshot
# pins all three surfaces at once.
ENGINE_OPTION_SCHEMA = [
    ("backend", None, True, "--backend"),
    ("max_workers", None, True, "--max-workers"),
    ("memo", True, True, "--no-memo"),
    ("memo_size", 4096, True, "--memo-size"),
    ("compile", True, True, "--no-compile"),
    ("domain_sizes", None, True, "--domain-sizes"),
    ("tolerances", None, True, "--tolerances"),
]


class TestExportedNames:
    def test_service_exports(self):
        assert sorted(service.__all__) == SERVICE_EXPORTS
        for name in service.__all__:
            assert getattr(service, name) is not None

    def test_core_exports(self):
        assert sorted(core.__all__) == CORE_EXPORTS
        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_server_exports(self):
        assert sorted(server.__all__) == SERVER_EXPORTS
        for name in server.__all__:
            assert getattr(server, name) is not None

    def test_obs_exports(self):
        assert sorted(obs.__all__) == OBS_EXPORTS
        for name in obs.__all__:
            assert getattr(obs, name) is not None

    def test_server_routes(self):
        assert list(server.ROUTES) == SERVER_ROUTES
        assert server.route_paths() == [path for _, path in SERVER_ROUTES]

    def test_top_level_lazy_exports(self):
        import repro

        for name in ("RandomWorlds", "KnowledgeBase", "BeliefResult", "BeliefSession", "open_session"):
            assert getattr(repro, name) is not None

    def test_point_tolerance_value(self):
        assert core.POINT_TOLERANCE == 1e-9
        assert core.result.POINT_TOLERANCE is core.POINT_TOLERANCE


class TestSignatures:
    def test_frozen_signatures(self):
        for (owner, name), expected in SIGNATURES.items():
            target = getattr(owner, name)
            assert str(inspect.signature(target)) == expected, f"{owner.__name__}.{name} drifted"

    def test_message_schemas(self):
        assert list(service.QueryRequest.__dataclass_fields__) == REQUEST_FIELDS
        assert list(service.BeliefResponse.__dataclass_fields__) == RESPONSE_FIELDS
        assert list(service.ErrorResponse.__dataclass_fields__) == ERROR_RESPONSE_FIELDS
        assert list(core.BeliefResult.__dataclass_fields__) == RESULT_FIELDS


class TestEngineOptionsSchema:
    def test_field_schema_snapshot(self):
        rows = [
            (
                f.name,
                f.default,
                bool(f.metadata.get("wire")),
                f.metadata.get("flag"),
            )
            for f in dataclasses.fields(core.EngineOptions)
        ]
        assert rows == ENGINE_OPTION_SCHEMA

    def test_wire_whitelist_derives_from_schema(self):
        wired = tuple(sorted(name for name, _, wire, _ in ENGINE_OPTION_SCHEMA if wire))
        assert core.EngineOptions.wire_option_names() == wired
        assert server.WIRE_ENGINE_OPTIONS == frozenset(wired)

    def test_cli_flags_derive_from_schema(self):
        parser = argparse.ArgumentParser()
        core.add_engine_cli_arguments(parser)
        spelled = {
            option for action in parser._actions for option in action.option_strings
        }
        expected = {flag for _, _, _, flag in ENGINE_OPTION_SCHEMA if flag}
        assert expected <= spelled

    def test_defaults_construct(self):
        options = core.EngineOptions()
        for name, default, _, _ in ENGINE_OPTION_SCHEMA:
            assert getattr(options, name) == default


class TestEngineOptionsRoundTrip:
    OPTIONS = dict(
        backend="processes",
        max_workers=2,
        memo=False,
        memo_size=128,
        compile=False,
        domain_sizes=(6, 8),
        tolerances=(0.2, 0.1),
    )

    def test_dict_round_trip_is_lossless_through_json(self):
        options = core.EngineOptions(**self.OPTIONS)
        revived = core.EngineOptions.from_dict(json.loads(json.dumps(options.to_dict())))
        assert revived == options

    def test_open_session_round_trip(self):
        options = core.EngineOptions(**self.OPTIONS)
        with service.open_session(
            "Jaun(Eric) and %(Hep(x) | Jaun(x); x) ~=[1] 0.8",
            options=options,
            consistency_check=False,
        ) as session:
            assert session.engine.options == options

    def test_wire_normalisation_round_trip(self):
        options = core.EngineOptions(**self.OPTIONS)
        normalised = server.normalise_engine_options(options)
        assert core.EngineOptions(**normalised) == options
        # Partial wire payloads coerce per key without inventing defaults.
        assert server.normalise_engine_options({"domain_sizes": [6, 8]}) == {
            "domain_sizes": (6, 8)
        }

    def test_cli_round_trip(self):
        parser = argparse.ArgumentParser()
        core.add_engine_cli_arguments(parser)
        args = parser.parse_args(
            [
                "--backend", "processes",
                "--max-workers", "2",
                "--no-memo",
                "--memo-size", "128",
                "--no-compile",
                "--domain-sizes", "6,8",
                "--tolerances", "0.2,0.1",
            ]
        )
        provided = core.engine_options_from_args(args)
        assert core.EngineOptions.from_dict(provided) == core.EngineOptions(**self.OPTIONS)
        # repro-serve refuses the removed threads backend with a usage error.
        with pytest.raises(SystemExit) as excinfo:
            serve_parser().parse_args(["--backend", 'threads'])
        assert excinfo.value.code == 2

    def test_cli_defaults_provide_nothing(self):
        parser = argparse.ArgumentParser()
        core.add_engine_cli_arguments(parser)
        assert core.engine_options_from_args(parser.parse_args([])) == {}


class TestSolverRegistry:
    def test_registered_keys(self):
        assert list(service.default_registry().keys()) == SOLVER_KEYS

    def test_legacy_aliases(self):
        registry = service.default_registry()
        for alias, key in SOLVER_ALIASES.items():
            assert registry.resolve(alias).key == key
