"""Direct inference — Theorem 5.6 and Corollaries 5.7 / 5.9.

If the knowledge base has the form ``psi(c) and KB'``, it determines (possibly
as an interval) the statistic ``||phi(x) | psi(x)||_x in [alpha, beta]``, and
the constants of the query appear nowhere else (not in KB', not in phi(x),
not in psi(x)), then the degree of belief in ``phi(c)`` lies in
``[alpha, beta]``.  The class ``psi`` may range over tuples of individuals
(Example 5.12, the elephant–zookeeper problem, uses pairs).

This module matches that pattern syntactically and returns the interval when
the side conditions hold.  It never guesses: when a condition cannot be
verified the match is rejected and the engine falls back to a semantic
computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.substitution import constants_of, free_vars, substitute
from ..logic.syntax import Const, Formula, TRUE, conjuncts
from .entailment import kb_entails_ground
from .knowledge_base import KnowledgeBase, StatisticalAssertion
from .result import BeliefResult


@dataclass(frozen=True)
class DirectInferenceMatch:
    """A successful application of Theorem 5.6."""

    statistic: StatisticalAssertion
    assignment: Dict[str, str]
    interval: Tuple[float, float]

    @property
    def is_point(self) -> bool:
        return abs(self.interval[1] - self.interval[0]) < 1e-12


def find_matches(query: Formula, knowledge_base: KnowledgeBase) -> List[DirectInferenceMatch]:
    """All statistics in the KB to which Theorem 5.6 applies for this query."""
    if free_vars(query):
        return []
    query_constants = sorted(constants_of(query))
    if not query_constants:
        return []
    matches: List[DirectInferenceMatch] = []
    for statistic in knowledge_base.statistics():
        for assignment in _candidate_assignments(statistic, query_constants):
            match = _try_match(query, knowledge_base, statistic, assignment)
            if match is not None:
                matches.append(match)
    return matches


def _candidate_assignments(
    statistic: StatisticalAssertion, query_constants: Sequence[str]
) -> List[Dict[str, str]]:
    """Injective assignments of the statistic's subscript variables to query constants."""
    variables = statistic.variables
    if len(variables) > len(query_constants):
        return []
    assignments = []
    for chosen in itertools.permutations(query_constants, len(variables)):
        assignments.append(dict(zip(variables, chosen)))
    return assignments


def _try_match(
    query: Formula,
    knowledge_base: KnowledgeBase,
    statistic: StatisticalAssertion,
    assignment: Dict[str, str],
) -> Optional[DirectInferenceMatch]:
    mapping = {variable: Const(name) for variable, name in assignment.items()}
    substituted_query = substitute(statistic.formula, mapping)
    if substituted_query != query:
        return None

    mapped_constants = set(assignment.values())

    # Condition: the mapped constants must not appear in phi(x) or psi(x).
    if mapped_constants & constants_of(statistic.formula):
        return None
    if mapped_constants & constants_of(statistic.condition):
        return None

    psi_ground = substitute(statistic.condition, mapping) if statistic.condition is not TRUE else TRUE

    # Condition: the mapped constants appear nowhere else in the KB.
    # KB' is the KB with the conjuncts constituting psi(c) removed.
    psi_conjuncts = set(conjuncts(psi_ground)) if psi_ground is not TRUE else set()
    source_conjuncts = set(conjuncts(statistic.source))
    for sentence in knowledge_base.sentences:
        if sentence in psi_conjuncts:
            continue
        if sentence == statistic.source or sentence in source_conjuncts:
            continue
        if mapped_constants & constants_of(sentence):
            return None

    # Condition: KB |= psi(c).  Literal membership of every conjunct of psi(c)
    # in the KB settles it (and covers reference classes that are not ground
    # propositional formulas, e.g. existentially quantified ones or nested
    # defaults); otherwise fall back to the propositional entailment check,
    # whose verdict the KB keeps when psi(c) is about its own constants.
    if psi_ground is not TRUE:
        prepared = knowledge_base.prepared
        if not all(part in prepared.sentence_set for part in conjuncts(psi_ground)):
            entails = partial(kb_entails_ground, knowledge_base, psi_ground)
            bounded = mapped_constants <= prepared.constants
            if not (prepared.memo(("entails", psi_ground), entails) if bounded else entails()):
                return None

    return DirectInferenceMatch(
        statistic=statistic,
        assignment=dict(assignment),
        interval=(statistic.low, statistic.high),
    )


def direct_inference(query: Formula, knowledge_base: KnowledgeBase) -> Optional[BeliefResult]:
    """Apply Theorem 5.6; return a :class:`BeliefResult` or ``None`` if it does not apply."""
    matches = find_matches(query, knowledge_base)
    if not matches:
        return None
    # Prefer the tightest interval (several matches can only arise from
    # redundant statistics; their intervals all contain the true value).
    best = min(matches, key=lambda m: m.interval[1] - m.interval[0])
    low, high = best.interval
    value = (low + high) / 2.0 if best.is_point else None
    return BeliefResult(
        value=value if best.is_point else None,
        interval=(low, high),
        exists=True,
        method="direct-inference",
        diagnostics={
            "statistic": repr(best.statistic.source),
            "assignment": best.assignment,
            "matches": len(matches),
        },
        note="Theorem 5.6 (direct inference)",
    )
