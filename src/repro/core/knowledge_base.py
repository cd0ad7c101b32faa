"""Knowledge bases: conjunctions of L≈ sentences with convenient accessors.

A :class:`KnowledgeBase` is the KB of the paper: an arbitrary conjunction of
first-order facts, universally quantified statements, statistical assertions
and defaults (statistical assertions with value ≈ 1 or ≈ 0).  The class keeps
the conjuncts separate so the analytic theorem engines can inspect their
structure, while ``formula`` exposes the single conjunction used by the
counting and max-entropy engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..logic.parser import parse
from ..logic.substitution import constants_of, free_vars
from ..logic.syntax import (
    ApproxEq,
    ApproxLeq,
    CondProportion,
    ExactCompare,
    Forall,
    Formula,
    Not,
    Number,
    Proportion,
    TRUE,
    conj,
    conjuncts,
    iter_proportion_exprs,
)
from ..logic.vocabulary import Vocabulary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .prepared import PreparedKB


@dataclass(frozen=True)
class StatisticalAssertion:
    """A KB conjunct comparing a (conditional) proportion to a number.

    ``formula`` / ``condition`` / ``variables`` describe the proportion term
    ``||formula | condition||_variables`` (``condition`` is ``TRUE`` for an
    unconditional proportion); ``low``/``high`` bound the asserted value
    (equal for a point statistic); ``low_index``/``high_index`` record the
    tolerance indices; ``source`` is the original conjunct.
    """

    formula: Formula
    condition: Formula
    variables: Tuple[str, ...]
    low: float
    high: float
    low_index: Optional[int]
    high_index: Optional[int]
    source: Formula

    @property
    def is_point(self) -> bool:
        return abs(self.high - self.low) < 1e-12

    @property
    def value(self) -> float:
        return (self.low + self.high) / 2.0

    @property
    def is_default(self) -> bool:
        """True for the statistical reading of a default rule (value ≈ 1 or ≈ 0)."""
        return self.is_point and (abs(self.value - 1.0) < 1e-12 or abs(self.value) < 1e-12)


class KnowledgeBase:
    """An immutable collection of L≈ sentences interpreted conjunctively.

    What the inference routes derive from the KB alone (its structured views,
    the analytic side conditions, the maximum-entropy ladders) is kept on its
    :attr:`prepared` state, created on first use.
    """

    def __init__(self, formulas: Iterable[Formula] = (), vocabulary: Optional[Vocabulary] = None):
        collected: List[Formula] = []
        for formula in formulas:
            for part in conjuncts(formula):
                collected.append(part)
            if not conjuncts(formula) and formula is not TRUE:
                collected.append(formula)
        for formula in collected:
            if free_vars(formula):
                raise ValueError(f"knowledge bases contain sentences; {formula!r} has free variables")
        self._formulas: Tuple[Formula, ...] = tuple(collected)
        inferred = Vocabulary.from_formulas(self._formulas) if self._formulas else Vocabulary()
        self._vocabulary = vocabulary.merge(inferred) if vocabulary is not None else inferred

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_strings(cls, *texts: str, vocabulary: Optional[Vocabulary] = None) -> "KnowledgeBase":
        """Build a KB from textual sentences (one per argument)."""
        return cls([parse(text) for text in texts], vocabulary=vocabulary)

    @classmethod
    def from_formula(cls, formula: Formula, vocabulary: Optional[Vocabulary] = None) -> "KnowledgeBase":
        """Build a KB from a single (possibly conjunctive) sentence."""
        return cls([formula], vocabulary=vocabulary)

    def conjoin(self, *additions: Formula | str) -> "KnowledgeBase":
        """A new KB with extra sentences added (strings are parsed)."""
        extra = [parse(a) if isinstance(a, str) else a for a in additions]
        return KnowledgeBase(self._formulas + tuple(extra), vocabulary=self._vocabulary)

    def without(self, *removed: Formula) -> "KnowledgeBase":
        """A new KB with the given conjuncts removed (by structural equality)."""
        removed_set = set(removed)
        return KnowledgeBase(
            [f for f in self._formulas if f not in removed_set], vocabulary=self._vocabulary
        )

    def with_vocabulary(self, vocabulary: Vocabulary) -> "KnowledgeBase":
        """A new KB whose vocabulary is extended to include ``vocabulary``."""
        return KnowledgeBase(self._formulas, vocabulary=self._vocabulary.merge(vocabulary))

    def with_vocabulary_of(self, *texts: str) -> "KnowledgeBase":
        """Extend the vocabulary with the symbols of extra (un-asserted) sentences.

        Useful when a query mentions symbols the KB itself does not (the
        degree of belief is insensitive to such vocabulary expansion, which
        the test-suite verifies, but the world-construction engines need the
        symbols declared up front).
        """
        extra = Vocabulary.from_formulas([parse(text) for text in texts])
        return self.with_vocabulary(extra)

    # -- basic accessors ------------------------------------------------------

    @property
    def sentences(self) -> Tuple[Formula, ...]:
        return self._formulas

    @property
    def formula(self) -> Formula:
        """The whole KB as one conjunction."""
        return conj(*self._formulas) if self._formulas else TRUE

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def is_unary(self) -> bool:
        return self._vocabulary.is_unary

    def constants(self) -> Tuple[str, ...]:
        return self._vocabulary.constants

    def __len__(self) -> int:
        return len(self._formulas)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self._formulas)

    def __contains__(self, formula: Formula) -> bool:
        return formula in self._formulas

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return set(self._formulas) == set(other._formulas)

    def __hash__(self) -> int:
        return hash(frozenset(self._formulas))

    def __repr__(self) -> str:
        body = "\n  ".join(repr(f) for f in self._formulas)
        return f"KnowledgeBase(\n  {body}\n)"

    def __getstate__(self) -> Dict[str, object]:
        # The prepared state holds a lock and is rebuilt on first use.
        state = dict(self.__dict__)
        state.pop("_prepared", None)
        return state

    @property
    def prepared(self) -> "PreparedKB":
        """The state derived from this KB alone, created on first use and kept
        for the KB's lifetime (see :mod:`repro.core.prepared`)."""
        prepared = self.__dict__.get("_prepared")
        if prepared is None:
            from .prepared import PreparedKB

            # dict.setdefault on a str key is atomic: concurrent first uses
            # agree on one instance.
            prepared = self.__dict__.setdefault("_prepared", PreparedKB(self))
        return prepared

    # -- structured views -----------------------------------------------------

    def ground_facts(self) -> Tuple[Formula, ...]:
        """Conjuncts that mention constants and no proportion expressions."""
        return self.prepared.ground_facts

    def facts_about(self, constant: str) -> Tuple[Formula, ...]:
        """Ground facts mentioning a particular constant."""
        return self.prepared.facts_about(constant)

    def universal_conjuncts(self) -> Tuple[Forall, ...]:
        """Top-level universally quantified conjuncts (taxonomic information)."""
        return self.prepared.universals

    def other_conjuncts(self) -> Tuple[Formula, ...]:
        """Conjuncts that are neither statistics, ground facts nor universals."""
        classified = set(self.ground_facts()) | set(self.universal_conjuncts())
        for statistic in self.statistics():
            # Merged interval statistics carry a conjunctive source; classify
            # each of the original conjuncts.
            classified.update(conjuncts(statistic.source))
            classified.add(statistic.source)
        return tuple(f for f in self._formulas if f not in classified)

    def statistics(self) -> Tuple[StatisticalAssertion, ...]:
        """All statistical assertions, merging paired lower/upper bounds."""
        return self.prepared.statistics

    def defaults(self) -> Tuple[StatisticalAssertion, ...]:
        """The statistics that encode default rules (value ≈ 1 or ≈ 0)."""
        return tuple(s for s in self.statistics() if s.is_default)

    def mentions(self, constant: str) -> Tuple[Formula, ...]:
        """Every conjunct in which a constant appears."""
        return tuple(f for f in self._formulas if constant in constants_of(f))

    def conjuncts_not_mentioning(self, constants: Sequence[str]) -> Tuple[Formula, ...]:
        """Conjuncts that mention none of the given constants."""
        excluded = set(constants)
        return tuple(f for f in self._formulas if not (constants_of(f) & excluded))


def is_ground_fact(formula: Formula) -> bool:
    """A conjunct that mentions constants and no proportion expressions."""
    return bool(constants_of(formula)) and not list(iter_proportion_exprs(formula)) and not _quantified(formula)


def merge_statistics(formulas: Iterable[Formula]) -> Tuple[StatisticalAssertion, ...]:
    """The statistical assertions among ``formulas``, merging paired lower/upper bounds."""
    point_or_single: List[StatisticalAssertion] = []
    bounds: Dict[Tuple[Formula, Formula, Tuple[str, ...]], Dict[str, object]] = {}
    for formula in formulas:
        assertion = _parse_statistic(formula)
        if assertion is None:
            continue
        key = (assertion.formula, assertion.condition, assertion.variables)
        if assertion.is_point and assertion.low_index == assertion.high_index:
            point_or_single.append(assertion)
            continue
        entry = bounds.setdefault(
            key, {"low": 0.0, "high": 1.0, "low_index": None, "high_index": None, "source": []}
        )
        if assertion.low > float(entry["low"]):
            entry["low"] = assertion.low
            entry["low_index"] = assertion.low_index
        if assertion.high < float(entry["high"]):
            entry["high"] = assertion.high
            entry["high_index"] = assertion.high_index
        entry["source"].append(assertion.source)
    merged: List[StatisticalAssertion] = list(point_or_single)
    for (formula, condition, variables), entry in bounds.items():
        sources = entry["source"]
        merged.append(
            StatisticalAssertion(
                formula=formula,
                condition=condition,
                variables=variables,
                low=float(entry["low"]),
                high=float(entry["high"]),
                low_index=entry["low_index"],
                high_index=entry["high_index"],
                source=conj(*sources),
            )
        )
    return tuple(merged)


def _quantified(formula: Formula) -> bool:
    from ..logic.syntax import Exists, ExistsExactly

    return isinstance(formula, (Forall, Exists, ExistsExactly))


def _parse_statistic(formula: Formula) -> Optional[StatisticalAssertion]:
    """Recognise a conjunct of the form ``proportion ~= value`` (or bound)."""
    if isinstance(formula, (ApproxEq, ApproxLeq, ExactCompare)):
        left, right = formula.left, formula.right
        flipped = False
        if isinstance(left, Number) and isinstance(right, (Proportion, CondProportion)):
            left, right = right, left
            flipped = True
        if not isinstance(left, (Proportion, CondProportion)) or not isinstance(right, Number):
            return None
        value = float(right.value)
        if isinstance(left, CondProportion):
            body, condition, variables = left.formula, left.condition, left.variables
        else:
            body, condition, variables = left.formula, TRUE, left.variables
        index = getattr(formula, "index", None)
        if isinstance(formula, ApproxEq):
            return StatisticalAssertion(body, condition, variables, value, value, index, index, formula)
        if isinstance(formula, ApproxLeq):
            if flipped:
                # value <~ proportion : lower bound
                return StatisticalAssertion(body, condition, variables, value, 1.0, index, None, formula)
            return StatisticalAssertion(body, condition, variables, 0.0, value, None, index, formula)
        op = formula.op if not flipped else {"<=": ">=", ">=": "<=", "<": ">", ">": "<", "==": "=="}[formula.op]
        if op == "==":
            return StatisticalAssertion(body, condition, variables, value, value, None, None, formula)
        if op in ("<=", "<"):
            return StatisticalAssertion(body, condition, variables, 0.0, value, None, None, formula)
        return StatisticalAssertion(body, condition, variables, value, 1.0, None, None, formula)
    return None
