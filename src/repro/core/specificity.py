"""Specificity and irrelevance — Theorem 5.16 and Corollary 5.17.

Theorem 5.16 covers the situation where the knowledge base provides statistics
for the query property ``phi`` over several reference classes, one of which —
``psi_0`` — is *minimal*: every other class with statistics for ``phi`` either
contains ``psi_0`` or is disjoint from it.  If the KB places the query
individual in ``psi_0``, the degree of belief is the ``psi_0`` statistic, and
any further information about the individual (being tall, being yellow, …) is
ignored.  This single theorem yields specificity, inheritance across
exceptional subclasses, and immunity to the drowning problem (Examples
5.18–5.21).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..logic.substitution import abstract_constant, constants_of, free_vars, symbols_of
from ..logic.syntax import Formula, Var
from ..worlds.unary import AtomTable, UnsupportedFormula
from .entailment import class_relation, entails_membership
from .knowledge_base import KnowledgeBase, StatisticalAssertion
from .result import BeliefResult


SUBJECT_VARIABLE = "x"


@dataclass(frozen=True)
class ReferenceClassStatistic:
    """A statistic ``||phi(x) | psi(x)||_x`` relevant to the current query."""

    statistic: StatisticalAssertion
    reference_class: Formula
    interval: Tuple[float, float]


def _unary_atom_table(knowledge_base: KnowledgeBase) -> AtomTable:
    """An atom table over the unary predicates of the KB's vocabulary.

    Higher-arity predicates are simply left out; reference classes are
    required to be single-variable formulas over unary predicates, so the
    subset/disjointness checks only need the unary part.
    """
    return knowledge_base.prepared.table


def _normalise(formula: Formula, variable: str) -> Formula:
    """Rename the single free variable of a formula to the canonical subject variable."""
    free = sorted(free_vars(formula))
    if not free:
        return formula
    if len(free) != 1:
        raise UnsupportedFormula(f"{formula!r} has more than one free variable")
    return _rename_variable(formula, free[0], variable)


def _rename_variable(formula: Formula, old: str, new: str) -> Formula:
    from ..logic.substitution import substitute

    if old == new:
        return formula
    return substitute(formula, {old: Var(new)})


def relevant_statistics(
    query_class: Formula, knowledge_base: KnowledgeBase
) -> List[ReferenceClassStatistic]:
    """Statistics whose left-hand side is exactly the query property."""
    return list(knowledge_base.prepared.statistics_by_property.get(query_class, ()))


def _symbols_condition_holds(
    query_class: Formula,
    relevant: Sequence[ReferenceClassStatistic],
    knowledge_base: KnowledgeBase,
    constant: str,
) -> bool:
    """Condition (c) of Theorem 5.16.

    The symbols of ``phi(x)`` may appear in the KB only on the left-hand side
    of the conditional proportions collected in ``relevant``.  Any other
    occurrence (in a ground fact, a universal, another statistic's condition)
    invalidates the theorem.
    """
    from ..logic.syntax import conjuncts as _conjuncts

    phi_symbols = symbols_of(query_class)
    # A merged interval statistic's source is the conjunction of the original
    # KB conjuncts, so membership is checked at the level of those conjuncts.
    allowed_sources = {}
    for relevant_statistic in relevant:
        for part in _conjuncts(relevant_statistic.statistic.source):
            allowed_sources[part] = relevant_statistic
    for sentence in knowledge_base.sentences:
        if sentence in allowed_sources:
            # Within an allowed statistic the symbols must stay on the left.
            if phi_symbols & symbols_of(allowed_sources[sentence].reference_class):
                return False
            continue
        if phi_symbols & symbols_of(sentence):
            return False
    return True


def specificity_inference(
    query: Formula, knowledge_base: KnowledgeBase
) -> Optional[BeliefResult]:
    """Apply Theorem 5.16; return ``None`` when its conditions cannot be established."""
    if free_vars(query):
        return None
    query_constants = sorted(constants_of(query))
    if len(query_constants) != 1:
        return None
    constant = query_constants[0]

    query_class = abstract_constant(query, constant, SUBJECT_VARIABLE)
    if constant in constants_of(query_class):  # pragma: no cover - abstraction removes it
        return None

    relevant = relevant_statistics(query_class, knowledge_base)
    if not relevant:
        return None

    if not _symbols_condition_holds(query_class, relevant, knowledge_base, constant):
        return None

    try:
        table = _unary_atom_table(knowledge_base)
    except Exception:
        return None

    # Candidate minimal classes: those the KB places the individual in.
    candidates: List[ReferenceClassStatistic] = []
    for candidate in relevant:
        if constants_of(candidate.reference_class):
            continue
        if entails_membership(knowledge_base, candidate.reference_class, constant, table):
            candidates.append(candidate)
    if not candidates:
        return None

    minimal: Optional[ReferenceClassStatistic] = None
    for candidate in candidates:
        is_minimal = True
        for other in relevant:
            if other is candidate:
                continue
            relation = class_relation(
                candidate.reference_class, other.reference_class, knowledge_base, table
            )
            if relation not in ("subset", "equal", "disjoint"):
                is_minimal = False
                break
        if is_minimal:
            if minimal is None:
                minimal = candidate
            else:
                # Prefer the more specific of several qualifying classes.
                relation = class_relation(
                    candidate.reference_class, minimal.reference_class, knowledge_base, table
                )
                if relation in ("subset",):
                    minimal = candidate
    if minimal is None:
        return None

    low, high = minimal.interval
    is_point = abs(high - low) < 1e-12
    return BeliefResult(
        value=(low + high) / 2.0 if is_point else None,
        interval=(low, high),
        exists=True,
        method="specificity",
        diagnostics={
            "reference_class": repr(minimal.reference_class),
            "statistic": repr(minimal.statistic.source),
            "competing_classes": [repr(r.reference_class) for r in relevant],
        },
        note="Theorem 5.16 (minimal reference class / irrelevance)",
    )
