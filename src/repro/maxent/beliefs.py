"""Degrees of belief from the maximum-entropy point of a unary knowledge base.

The computation follows Section 6 of the paper: the conditional world count
concentrates on atom-proportion vectors of maximum entropy, so for a unary KB

* the statistical part of the KB fixes (via entropy maximisation) the limiting
  atom proportions ``p*``;
* everything the KB says about a particular constant ``c`` is a quantifier-free
  unary formula ``psi_c(c)``; by direct inference at the concentrated
  proportions, the degree of belief in ``phi(c)`` is the conditional weight
  ``p*(phi and psi_c) / p*(psi_c)``;
* distinct constants are treated independently (Theorem 5.27), so queries that
  are Boolean combinations over several constants multiply out.

The answer is computed along a shrinking tolerance sequence, each tolerance
warm-started from the previous one's multipliers, and the tau -> 0 trend is
checked, mirroring the outer limit of Definition 4.3.  Where the query splits
an evidence class whose maximum-entropy mass vanishes at the smallest
tolerance, the conditional depends on how the tolerance reaches 0, and the
limit is reported as not existing.

The solutions along the ladder and the KB's evidence depend on the KB alone
(:func:`solve_ladder`); a :class:`~repro.core.knowledge_base.KnowledgeBase`
keeps them on its prepared state, so only the conditioning on the query's
atoms is per-query work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..logic.substitution import constants_of, free_vars
from ..logic.syntax import Formula, TRUE, conj, conjuncts
from ..logic.tolerance import ToleranceVector, default_sequence
from ..logic.vocabulary import Vocabulary
from ..worlds.unary import AtomTable, UnsupportedFormula
from .atoms import atoms_satisfying
from .constraints import extract_constraints
from .solver import MaxEntSolution, solve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.knowledge_base import KnowledgeBase

# Below this maximum-entropy mass at the smallest tolerance, a constant's
# evidence class is taken to vanish as tau -> 0.  Over the paper's KBs and the
# corpus, evidence masses at the smallest default tolerance are either above
# 1e-5 or below 1e-30 (the classes that the KB's statistics force empty).
VANISHING_EVIDENCE = 1e-9

# (query atoms, evidence atoms) for each constant a query mentions.
AtomSets = List[Tuple[FrozenSet[int], FrozenSet[int]]]


@dataclass(frozen=True)
class MaxEntBelief:
    """A degree of belief computed through the maximum-entropy route."""

    value: Optional[float]
    exists: bool
    per_tolerance: Tuple[Tuple[float, Optional[float]], ...]
    solution: MaxEntSolution
    note: str = ""


@dataclass(frozen=True)
class MaxEntLadder:
    """The maximum-entropy points of a KB along a tolerance ladder.

    ``rungs`` pairs each tolerance vector's largest tolerance with its
    solution, in ladder order; ``evidence`` is the KB's ground facts per
    constant.  Neither depends on a query.
    """

    rungs: Tuple[Tuple[float, MaxEntSolution], ...]
    evidence: Dict[str, Formula]


def solve_ladder(
    knowledge_base: Formula,
    vocabulary: Vocabulary,
    tolerances: Sequence[ToleranceVector],
) -> MaxEntLadder:
    """Solve a unary KB at every tolerance of a ladder, each rung warm-started
    from the previous rung's multipliers.

    Raises :class:`UnsupportedFormula` when the KB falls outside the
    max-entropy fragment and :class:`~repro.maxent.solver.MaxEntInfeasible`
    when a rung's constraints admit no point.
    """
    rungs: List[Tuple[float, MaxEntSolution]] = []
    evidence: Dict[str, Formula] = {}
    last_solution: Optional[MaxEntSolution] = None
    for tolerance in tolerances:
        constraint_set = extract_constraints(knowledge_base, vocabulary, tolerance)
        warm_start = last_solution.multipliers if last_solution is not None else None
        last_solution = solve(constraint_set, warm_start=warm_start)
        # The evidence does not depend on the tolerance.
        evidence = constraint_set.evidence
        rungs.append((tolerance.max_tolerance, last_solution))
    return MaxEntLadder(tuple(rungs), evidence)


def _query_constants(query: Formula) -> Tuple[str, ...]:
    if free_vars(query):
        raise UnsupportedFormula("queries must be closed sentences")
    names = sorted(constants_of(query))
    if not names:
        raise UnsupportedFormula(
            "the max-entropy belief calculator handles queries about named individuals; "
            "use the exact counting engine for proportion-valued queries"
        )
    return tuple(names)


def _split_query_by_constant(query: Formula, constants: Tuple[str, ...]) -> Dict[str, Formula]:
    """Split a conjunctive query into per-constant parts.

    Each conjunct must mention exactly one constant; Theorem 5.27 then lets the
    parts be treated independently.
    """
    parts: Dict[str, List[Formula]] = {name: [] for name in constants}
    for part in conjuncts(query):
        mentioned = sorted(constants_of(part))
        if len(mentioned) != 1:
            raise UnsupportedFormula(
                f"query conjunct {part!r} mentions {len(mentioned)} constants; "
                "use the exact counting engine"
            )
        parts[mentioned[0]].append(part)
    return {name: conj(*fs) if fs else TRUE for name, fs in parts.items()}


def belief_from_solution(
    query: Formula,
    solution: MaxEntSolution,
    evidence: Dict[str, Formula],
) -> Optional[float]:
    """Degree of belief in ``query`` at a fixed max-entropy solution."""
    table = solution.table
    return _belief(solution, _with_evidence(_query_atom_sets(query, table), table, evidence))


def _query_atom_sets(query: Formula, table: AtomTable) -> Dict[str, FrozenSet[int]]:
    """The query's atoms for each constant it mentions; raises
    :class:`UnsupportedFormula` for a query this route cannot answer."""
    constants = _query_constants(query)
    return {
        constant: atoms_satisfying(_about_variable(constant_query, constant), table)
        for constant, constant_query in _split_query_by_constant(query, constants).items()
    }


def _with_evidence(
    query_atoms: Dict[str, FrozenSet[int]], table: AtomTable, evidence: Dict[str, Formula]
) -> AtomSets:
    """``(query atoms, evidence atoms)`` for each constant the query mentions."""
    return [
        (atoms, atoms_satisfying(_about_variable(evidence.get(constant, TRUE), constant), table))
        for constant, atoms in query_atoms.items()
    ]


def _belief(solution: MaxEntSolution, atom_sets: AtomSets) -> Optional[float]:
    value = 1.0
    for query_atoms, known_atoms in atom_sets:
        conditional = solution.conditional(query_atoms, known_atoms)
        if conditional is None:
            return None
        value *= conditional
    return value


def _about_variable(formula: Formula, constant: str) -> Formula:
    """Rewrite a ground formula about ``constant`` as a formula about a fresh variable.

    ``Hep(Eric) and Tall(Eric)`` becomes ``Hep(x) and Tall(x)`` so the atom-set
    machinery (which works with one subject) applies uniformly.
    """
    from ..logic.substitution import abstract_constant

    return abstract_constant(formula, constant, "x")


def degree_of_belief_maxent(
    query: Formula,
    knowledge_base: Union[Formula, "KnowledgeBase"],
    vocabulary: Vocabulary,
    tolerances: Iterable[ToleranceVector] | None = None,
    stability: float = 2e-2,
) -> MaxEntBelief:
    """Compute ``Pr_infinity(query | KB)`` through the maximum-entropy connection.

    ``knowledge_base`` is the KB as one formula, or a
    :class:`~repro.core.knowledge_base.KnowledgeBase`, whose prepared state
    then solves each tolerance ladder once for all queries.  The query is
    checked before any rung is solved.  Raises :class:`UnsupportedFormula`
    when the KB or query fall outside the unary fragment this route
    supports; the top-level engine then falls back to exact counting.
    """
    tolerance_list = list(tolerances) if tolerances is not None else list(default_sequence())
    if not vocabulary.is_unary:
        raise UnsupportedFormula("max-entropy constraints require a unary vocabulary")
    table = AtomTable.for_vocabulary(vocabulary)
    query_atoms = _query_atom_sets(query, table)
    if isinstance(knowledge_base, Formula):
        ladder = solve_ladder(knowledge_base, vocabulary, tolerance_list)
    else:
        ladder = knowledge_base.prepared.maxent_ladder(vocabulary, tolerance_list)
    atom_sets = _with_evidence(query_atoms, table, ladder.evidence)
    per_tolerance = [(tau, _belief(solution, atom_sets)) for tau, solution in ladder.rungs]
    last_solution = ladder.rungs[-1][1] if ladder.rungs else None

    defined = [(tau, v) for (tau, v) in per_tolerance if v is not None]
    if last_solution is None or not defined:
        return MaxEntBelief(None, False, tuple(per_tolerance), last_solution, "undefined")
    final = defined[-1][1]
    # An evidence class that the query splits leaves the conditional to the
    # path of tau once its mass vanishes; one inside or outside the query's
    # atoms gives 1 or 0 on every path.
    evidence_mass = min(
        (last_solution.probability_of(known) for queried, known in atom_sets if known & queried and known - queried),
        default=1.0,
    )
    if evidence_mass < VANISHING_EVIDENCE:
        exists = False
        note = (
            f"the evidence has maximum-entropy mass {evidence_mass:.2g} at tau = {per_tolerance[-1][0]:g}: "
            "the conditional depends on how the tolerance reaches 0"
        )
    elif len(defined) >= 2:
        (tau_prev, value_prev), (tau_last, value_last) = defined[-2], defined[-1]
        drift = abs(value_last - value_prev)
        exists = drift <= stability
        note = "" if exists else "value drifts as the tolerance shrinks"
        # The max-entropy value typically approaches its tau -> 0 limit linearly
        # in the tolerance (the active constraint is a band of width tau), so a
        # linear extrapolation to tau = 0 removes the residual bias.
        if exists and abs(tau_prev - tau_last) > 1e-15:
            slope = (value_prev - value_last) / (tau_prev - tau_last)
            extrapolated = value_last - slope * tau_last
            final = min(max(extrapolated, 0.0), 1.0)
    else:
        exists = True
        note = "single tolerance only"
    return MaxEntBelief(final, exists, tuple(per_tolerance), last_solution, note)
