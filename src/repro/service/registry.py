"""The solver registry: every inference family behind one request path.

Layer contract: this module owns the mapping from method keys to inference
machinery — it adapts each family to the one ``solve(request, session) ->
BeliefResult`` shape, and holds no session state and no wire format of its
own.

A :class:`Solver` answers a :class:`~repro.service.messages.QueryRequest`
against a :class:`~repro.service.session.BeliefSession` and returns the same
:class:`~repro.core.result.BeliefResult` schema regardless of machinery.  The
registry maps string method keys (``"auto"``, ``"maxent"``,
``"reference-class:kyburg"``, ``"defaults:system-z"``, ...) to solvers and
offers a ``supports(request, kb)`` probe so a front-end can ask which
families apply to a query before dispatching it.

Registered families:

* ``random-worlds`` (alias ``auto``) and the per-path keys
  ``random-worlds:independence`` / ``:analytic`` / ``:maxent`` /
  ``:counting`` (aliased to their bare legacy names) — the
  :class:`~repro.core.engine.RandomWorlds` dispatch;
* ``reference-class:reichenbach`` / ``reference-class:kyburg`` — the
  single-reference-class baselines of Section 2;
* ``defaults:system-z`` / ``defaults:epsilon`` / ``defaults:maxent`` — the
  propositional default-reasoning baselines of Sections 3 and 6, applied to
  the statistical reading of the session KB's defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.knowledge_base import KnowledgeBase
from ..core.result import BeliefResult
from ..defaults.epsilon import p_entails
from ..defaults.propositional import NotPropositional
from ..defaults.rules import DefaultRule, RuleSet
from ..defaults.system_z import z_ranking
from ..logic.substitution import constants_of
from ..logic.syntax import (
    And,
    Atom,
    Bottom,
    Const,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    Top,
    Var,
    conj,
)
from ..reference_class.classes import NoReferenceClass, extract_problem
from ..reference_class.kyburg import KyburgReasoner
from ..reference_class.reichenbach import ReferenceClassAnswer, ReichenbachReasoner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .messages import QueryRequest
    from .session import BeliefSession


class UnsupportedRequest(ValueError):
    """Raised when a solver cannot interpret the request/KB combination."""


@dataclass(frozen=True)
class Solver:
    """One registered inference family.

    ``solve(request, session)`` produces the result; ``supports(request,
    kb)`` is a cheap applicability probe (it must not mutate warm state and
    should err on the side of ``True`` when applicability is only decidable
    by running the solver).
    """

    key: str
    solve: Callable[["QueryRequest", "BeliefSession"], BeliefResult]
    supports: Callable[["QueryRequest", KnowledgeBase], bool]
    description: str = ""
    aliases: Tuple[str, ...] = ()


class SolverRegistry:
    """String-keyed solver lookup shared by every session."""

    def __init__(self) -> None:
        self._solvers: Dict[str, Solver] = {}
        self._aliases: Dict[str, str] = {}

    def register(self, solver: Solver) -> Solver:
        """Register a solver under its key and aliases (either may not clash)."""
        for name in (solver.key, *solver.aliases):
            if name in self._solvers or name in self._aliases:
                raise ValueError(f"solver key {name!r} is already registered")
        self._solvers[solver.key] = solver
        for alias in solver.aliases:
            self._aliases[alias] = solver.key
        return solver

    def resolve(self, method: str) -> Solver:
        """The solver for a method key or alias; ``ValueError`` on unknown keys."""
        key = self._aliases.get(method, method)
        solver = self._solvers.get(key)
        if solver is None:
            known = ", ".join(sorted((*self._solvers, *self._aliases)))
            raise ValueError(f"unknown method {method!r}; expected one of: {known}")
        return solver

    def keys(self) -> Tuple[str, ...]:
        """The canonical solver keys, sorted."""
        return tuple(sorted(self._solvers))

    def supporting(self, request: "QueryRequest", knowledge_base: KnowledgeBase) -> Tuple[str, ...]:
        """The keys of every solver whose probe accepts the request."""
        return tuple(
            key for key, solver in sorted(self._solvers.items()) if solver.supports(request, knowledge_base)
        )

    def __contains__(self, method: str) -> bool:
        return method in self._solvers or method in self._aliases

    def __iter__(self):
        return iter(self._solvers.values())


# ---------------------------------------------------------------------------
# Random-worlds solvers (the engine dispatch behind string keys)
# ---------------------------------------------------------------------------


def _engine_solver(method: str) -> Callable[["QueryRequest", "BeliefSession"], BeliefResult]:
    def solve(request: "QueryRequest", session: "BeliefSession") -> BeliefResult:
        engine = session.engine_for(request)
        return engine.dispatch(request.formula, session.knowledge_base, method=method)

    return solve


def _maxent_supports(request: "QueryRequest", knowledge_base: KnowledgeBase) -> bool:
    from ..logic.vocabulary import Vocabulary

    vocabulary = knowledge_base.vocabulary.merge(Vocabulary.from_formulas([request.formula]))
    return vocabulary.is_unary


def _always(request: "QueryRequest", knowledge_base: KnowledgeBase) -> bool:
    return True


# ---------------------------------------------------------------------------
# Reference-class solvers
# ---------------------------------------------------------------------------


def _reference_answer_result(answer: ReferenceClassAnswer, key: str) -> BeliefResult:
    return BeliefResult(
        value=answer.value,
        interval=answer.interval,
        exists=True,
        method=key,
        diagnostics={
            "vacuous": answer.vacuous,
            "chosen_class": repr(answer.chosen_class) if answer.chosen_class is not None else None,
        },
        note=answer.note,
    )


def _reference_class_solver(key: str, reasoner) -> Callable[["QueryRequest", "BeliefSession"], BeliefResult]:
    def solve(request: "QueryRequest", session: "BeliefSession") -> BeliefResult:
        answer = reasoner.answer(request.formula, session.knowledge_base)
        return _reference_answer_result(answer, key)

    return solve


def _reference_class_supports(request: "QueryRequest", knowledge_base: KnowledgeBase) -> bool:
    try:
        extract_problem(request.formula, knowledge_base)
    except NoReferenceClass:
        return False
    return True


# ---------------------------------------------------------------------------
# Default-reasoning solvers (the statistical reading of the KB's defaults)
# ---------------------------------------------------------------------------


def _propositional(formula: Formula, subject) -> Formula:
    """Rewrite a one-subject unary formula as a propositional one.

    ``subject`` is the variable name (for statistics ``%(... | ...; x)``) or
    the :class:`Const` (for ground facts) every atom must be about; the atom's
    predicate becomes a propositional variable.
    """
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Atom):
        if len(formula.args) != 1:
            raise NotPropositional(f"{formula!r} is not unary")
        argument = formula.args[0]
        if isinstance(subject, Const):
            matches = argument == subject
        else:
            matches = isinstance(argument, Var) and argument.name == subject
        if not matches:
            raise NotPropositional(f"{formula!r} is not about {subject!r}")
        return Atom(formula.predicate, ())
    if isinstance(formula, Not):
        return Not(_propositional(formula.operand, subject))
    if isinstance(formula, And):
        return And(tuple(_propositional(operand, subject) for operand in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(_propositional(operand, subject) for operand in formula.operands))
    if isinstance(formula, Implies):
        return Implies(_propositional(formula.antecedent, subject), _propositional(formula.consequent, subject))
    if isinstance(formula, Iff):
        return Iff(_propositional(formula.left, subject), _propositional(formula.right, subject))
    raise NotPropositional(f"{formula!r} is outside the propositional default fragment")


@dataclass(frozen=True)
class DefaultProblem:
    """A session KB and query translated into the propositional default setting.

    The KB's defaults (statistics with value ≈ 1 or ≈ 0 over one variable)
    become default rules; its universally quantified conjuncts become hard
    constraints; the ground facts about the query's constant become the query
    rule's antecedent (its context).
    """

    rule_set: RuleSet
    query_rule: DefaultRule
    constant: str
    rule_labels: Tuple[str, ...] = field(default_factory=tuple)


def _kb_rule_set(knowledge_base: KnowledgeBase) -> Tuple[RuleSet, Tuple[str, ...]]:
    """The KB-only half of the translation: rules plus hard constraints.

    A pure function of the (immutable) KB, so the KB's prepared state keeps it.
    """
    rules: List[DefaultRule] = []
    labels: List[str] = []
    try:
        for statistic in knowledge_base.statistics():
            if not statistic.is_default:
                raise UnsupportedRequest(
                    f"statistic {statistic.source!r} is not a default (value must be ~= 0 or ~= 1)"
                )
            if len(statistic.variables) != 1:
                raise UnsupportedRequest(f"default {statistic.source!r} quantifies over several variables")
            variable = statistic.variables[0]
            antecedent = _propositional(statistic.condition, variable)
            consequent = _propositional(statistic.formula, variable)
            if abs(statistic.value) < 1e-12:
                consequent = Not(consequent)
            label = repr(statistic.source)
            rules.append(DefaultRule(antecedent, consequent, label=label))
            labels.append(label)
        if not rules:
            raise UnsupportedRequest("the knowledge base asserts no defaults")

        hard: List[Formula] = []
        for universal in knowledge_base.universal_conjuncts():
            if not isinstance(universal, Forall) or isinstance(universal.body, Forall):
                raise UnsupportedRequest(f"{universal!r} is outside the propositional default fragment")
            hard.append(_propositional(universal.body, universal.variable))
    except NotPropositional as error:
        raise UnsupportedRequest(str(error)) from error
    return RuleSet(rules, hard), tuple(labels)


def _query_rule(query: Formula, knowledge_base: KnowledgeBase) -> Tuple[DefaultRule, str]:
    """The query half: the grounded context and consequent as a query rule."""
    constants = sorted(constants_of(query))
    if len(constants) != 1:
        raise UnsupportedRequest(
            f"default-reasoning queries are ground sentences about one constant; {query!r} mentions {constants}"
        )
    constant = constants[0]
    try:
        consequent = _propositional(query, Const(constant))
        context_parts = [
            _propositional(fact, Const(constant)) for fact in knowledge_base.facts_about(constant)
        ]
    except NotPropositional as error:
        raise UnsupportedRequest(str(error)) from error
    context = conj(*context_parts) if context_parts else TRUE
    return DefaultRule(context, consequent, label=repr(query)), constant


def extract_default_problem(query: Formula, knowledge_base: KnowledgeBase) -> DefaultProblem:
    """Translate (query, KB) into a rule set plus query rule, or raise.

    Raises :class:`UnsupportedRequest` when the KB has no defaults, carries
    statistics outside the default fragment, or the query is not a ground
    unary sentence about exactly one constant.
    """
    rule_set, labels = _kb_rule_set(knowledge_base)
    query_rule, constant = _query_rule(query, knowledge_base)
    return DefaultProblem(rule_set=rule_set, query_rule=query_rule, constant=constant, rule_labels=labels)


def _session_problem(request: "QueryRequest", session: "BeliefSession") -> DefaultProblem:
    """Like :func:`extract_default_problem`, with the KB half kept on the KB's prepared state."""
    knowledge_base = session.knowledge_base
    rule_set, labels = knowledge_base.prepared.memo(("defaults", "rule-set"), lambda: _kb_rule_set(knowledge_base))
    query_rule, constant = _query_rule(request.formula, knowledge_base)
    return DefaultProblem(rule_set=rule_set, query_rule=query_rule, constant=constant, rule_labels=labels)


def _defaults_supports(request: "QueryRequest", knowledge_base: KnowledgeBase) -> bool:
    try:
        extract_default_problem(request.formula, knowledge_base)
    except UnsupportedRequest:
        return False
    return True


def _entailment_result(
    key: str,
    problem: DefaultProblem,
    entails_query: bool,
    entails_negation: bool,
    note: str,
    diagnostics: Optional[dict] = None,
) -> BeliefResult:
    if entails_query and entails_negation:
        # An unsatisfiable context vacuously entails everything; serving 1.0
        # for both a query and its negation would be incoherent.
        value: Optional[float] = None
        note = f"{note}; the query context is unsatisfiable (it entails every conclusion)"
    elif entails_query:
        value = 1.0
    elif entails_negation:
        value = 0.0
    else:
        value = None
        note = f"{note}; the query is undecided"
    payload = {
        "rules": list(problem.rule_labels),
        "context": repr(problem.query_rule.antecedent),
        "constant": problem.constant,
        "entails_query": entails_query,
        "entails_negation": entails_negation,
    }
    if diagnostics:
        payload.update(diagnostics)
    return BeliefResult(
        value=value,
        interval=None if value is None else (value, value),
        exists=True,
        method=key,
        diagnostics=payload,
        note=note,
    )


def _system_z_solve(request: "QueryRequest", session: "BeliefSession") -> BeliefResult:
    problem = _session_problem(request, session)
    # The ranking is a pure function of the session KB's rule set.
    ranking = session.knowledge_base.prepared.memo(
        ("defaults:system-z", "ranking"), lambda: z_ranking(problem.rule_set)
    )
    entails_query = ranking.entails(problem.query_rule.antecedent, problem.query_rule.consequent)
    entails_negation = ranking.entails(problem.query_rule.antecedent, Not(problem.query_rule.consequent))
    ranks = {rule.label or repr(rule): rank for rule, rank in ranking.rule_ranks.items()}
    return _entailment_result(
        "defaults:system-z",
        problem,
        entails_query,
        entails_negation,
        "System-Z entailment over the KB's defaults",
        diagnostics={"rule_ranks": ranks},
    )


def _epsilon_solve(request: "QueryRequest", session: "BeliefSession") -> BeliefResult:
    problem = _session_problem(request, session)
    query_rule = problem.query_rule
    entails_query = p_entails(problem.rule_set, query_rule)
    entails_negation = p_entails(
        problem.rule_set, DefaultRule(query_rule.antecedent, Not(query_rule.consequent))
    )
    return _entailment_result(
        "defaults:epsilon",
        problem,
        entails_query,
        entails_negation,
        "epsilon-semantics (p-entailment) over the KB's defaults",
    )


def _maxent_defaults_solve(request: "QueryRequest", session: "BeliefSession") -> BeliefResult:
    from ..defaults.maxent_defaults import MaxEntDefaultReasoner

    problem = _session_problem(request, session)

    def build() -> MaxEntDefaultReasoner:
        return MaxEntDefaultReasoner(problem.rule_set)

    # The rule set is a pure function of the session's (immutable) KB, so one
    # reasoner per KB suffices — a constant key makes the memo hit.
    reasoner: MaxEntDefaultReasoner = session.knowledge_base.prepared.memo(("defaults:maxent", "reasoner"), build)
    inner = reasoner.degree_of_belief(problem.query_rule)
    return BeliefResult(
        value=inner.value,
        interval=inner.interval,
        exists=inner.exists,
        method="defaults:maxent",
        diagnostics={"rules": list(problem.rule_labels), "inner_method": inner.method, **inner.diagnostics},
        note=inner.note or "GMP90 maximum-entropy defaults through the Theorem 6.1 embedding",
    )


# ---------------------------------------------------------------------------
# The default registry
# ---------------------------------------------------------------------------


def build_default_registry() -> SolverRegistry:
    """A registry with every built-in inference family registered."""
    registry = SolverRegistry()
    registry.register(
        Solver(
            key="random-worlds",
            solve=_engine_solver("auto"),
            supports=_always,
            description="random-worlds auto-dispatch: independence, analytic theorems, maxent, counting",
            aliases=("auto",),
        )
    )
    for path, probe in (
        ("independence", _always),
        ("analytic", _always),
        ("maxent", _maxent_supports),
        ("counting", _always),
    ):
        registry.register(
            Solver(
                key=f"random-worlds:{path}",
                solve=_engine_solver(path),
                supports=probe,
                description=f"random-worlds forced through its {path} path",
                aliases=(path,),
            )
        )
    registry.register(
        Solver(
            key="reference-class:reichenbach",
            solve=_reference_class_solver("reference-class:reichenbach", ReichenbachReasoner()),
            supports=_reference_class_supports,
            description="narrowest single reference class (Section 2.1)",
        )
    )
    registry.register(
        Solver(
            key="reference-class:kyburg",
            solve=_reference_class_solver("reference-class:kyburg", KyburgReasoner()),
            supports=_reference_class_supports,
            description="specificity plus the strength rule (Section 2.3)",
        )
    )
    registry.register(
        Solver(
            key="defaults:system-z",
            solve=_system_z_solve,
            supports=_defaults_supports,
            description="System-Z ranking over the statistical reading of the KB's defaults",
        )
    )
    registry.register(
        Solver(
            key="defaults:epsilon",
            solve=_epsilon_solve,
            supports=_defaults_supports,
            description="epsilon-semantics p-entailment over the KB's defaults",
        )
    )
    registry.register(
        Solver(
            key="defaults:maxent",
            solve=_maxent_defaults_solve,
            supports=_defaults_supports,
            description="GMP90 maximum-entropy defaults (Theorem 6.1 embedding)",
        )
    )
    return registry


_default_registry: Optional[SolverRegistry] = None


def default_registry() -> SolverRegistry:
    """The process-wide shared registry (built on first use)."""
    global _default_registry
    if _default_registry is None:
        _default_registry = build_default_registry()
    return _default_registry
