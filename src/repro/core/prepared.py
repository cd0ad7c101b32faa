"""Per-knowledge-base state, derived once on first use.

Layer contract: this module owns what the inference routes derive from a
knowledge base alone.  The side conditions the Section 5 theorems check
(``KB |= psi(c)``; which reference classes are nested or disjoint) and the
maximum-entropy points of Section 6 depend only on the KB; only the final
conditioning on a query's atoms depends on the query.  A :class:`PreparedKB`
holds

* the KB's structured views: its statistics, universals, ground facts (also
  by constant), sentence set and single-variable statistics by property;
* the analytic side conditions over the KB's own unary atom table, memoised
  by :mod:`repro.core.entailment` and :mod:`repro.core.direct_inference`
  through :meth:`PreparedKB.memo` under keys made of the KB's sentences,
  classes and constants only;
* the maximum-entropy ladders, one per (unary predicates, tolerance ladder),
  in a least-recently-used table of :data:`LADDER_LIMIT` entries, because a
  query may name extra predicates and a request may override the
  tolerances.

The :class:`~repro.core.knowledge_base.KnowledgeBase` creates its
``PreparedKB`` on first use (never at construction) and keeps it for its
lifetime.  A session normalises one KB instance and every layer below it
passes that instance on, so the state lives exactly as long as the session.
Builds run outside any lock; concurrent first uses may build twice, and the
first store wins.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Hashable, List, Sequence, Tuple

from ..logic.substitution import constants_of
from ..logic.syntax import Forall, Formula
from ..logic.tolerance import ToleranceVector
from ..logic.vocabulary import Vocabulary
from ..maxent.beliefs import MaxEntLadder, solve_ladder
from ..maxent.solver import MaxEntInfeasible
from ..statics.runtime import named_lock
from ..worlds.unary import AtomTable, UnsupportedFormula
from .knowledge_base import StatisticalAssertion, is_ground_fact, merge_statistics
from .specificity import SUBJECT_VARIABLE, ReferenceClassStatistic, _rename_variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .knowledge_base import KnowledgeBase

# How many maximum-entropy ladders one KB keeps (least recently used out).
LADDER_LIMIT = 8


@dataclass(frozen=True)
class _Refused:
    """A ladder the KB cannot have: its error's type and arguments, raised
    afresh on each use."""

    kind: type
    args: Tuple[Any, ...]


def _tolerance_key(tolerance: ToleranceVector) -> Tuple[float, Tuple[Tuple[int, float], ...]]:
    return (tolerance.default, tuple(sorted(tolerance.values.items())))


class PreparedKB:
    """The state derived from one knowledge base (see the module docstring)."""

    def __init__(self, knowledge_base: "KnowledgeBase"):
        self._kb = knowledge_base
        self._memo: Dict[Hashable, Any] = {}
        self._ladders: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = named_lock("PreparedKB._lock")

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value stored under ``key``, built by ``build()`` on first use.

        ``build`` runs outside the lock, so it may itself read other entries;
        concurrent first calls may build twice, and the first store wins.
        Keys must be bounded by the KB (its sentences, classes and constants).
        """
        with self._lock:
            if key in self._memo:
                return self._memo[key]
        built = build()
        with self._lock:
            return self._memo.setdefault(key, built)

    # -- structured views -----------------------------------------------------

    @property
    def statistics(self) -> Tuple[StatisticalAssertion, ...]:
        return self.memo("statistics", lambda: merge_statistics(self._kb.sentences))

    @property
    def universals(self) -> Tuple[Forall, ...]:
        return self.memo("universals", lambda: tuple(f for f in self._kb.sentences if isinstance(f, Forall)))

    @property
    def ground_facts(self) -> Tuple[Formula, ...]:
        return self.memo("ground-facts", lambda: tuple(f for f in self._kb.sentences if is_ground_fact(f)))

    def facts_about(self, constant: str) -> Tuple[Formula, ...]:
        """The ground facts mentioning ``constant``, in KB order."""
        return self.memo("facts-by-constant", self._facts_by_constant).get(constant, ())

    def _facts_by_constant(self) -> Dict[str, Tuple[Formula, ...]]:
        by_constant: Dict[str, List[Formula]] = {}
        for fact in self.ground_facts:
            for constant in constants_of(fact):
                by_constant.setdefault(constant, []).append(fact)
        return {constant: tuple(facts) for constant, facts in by_constant.items()}

    @property
    def sentence_set(self) -> FrozenSet[Formula]:
        return self.memo("sentence-set", lambda: frozenset(self._kb.sentences))

    @property
    def constants(self) -> FrozenSet[str]:
        """The constants of the KB's vocabulary."""
        return self.memo("constants", lambda: frozenset(self._kb.vocabulary.constants))

    @property
    def statistics_by_property(self) -> Dict[Formula, Tuple[ReferenceClassStatistic, ...]]:
        """Single-variable statistics by their property, subject renamed to ``x``."""
        return self.memo("statistics-by-property", self._statistics_by_property)

    def _statistics_by_property(self) -> Dict[Formula, Tuple[ReferenceClassStatistic, ...]]:
        by_property: Dict[Formula, List[ReferenceClassStatistic]] = {}
        for statistic in self.statistics:
            if len(statistic.variables) != 1:
                continue
            variable = statistic.variables[0]
            formula = _rename_variable(statistic.formula, variable, SUBJECT_VARIABLE)
            condition = _rename_variable(statistic.condition, variable, SUBJECT_VARIABLE)
            by_property.setdefault(formula, []).append(
                ReferenceClassStatistic(statistic, condition, (statistic.low, statistic.high))
            )
        return {formula: tuple(group) for formula, group in by_property.items()}

    # -- analytic side conditions -----------------------------------------------

    @property
    def table(self) -> AtomTable:
        """The atom table over the unary predicates of the KB's vocabulary."""
        return self.memo("table", lambda: AtomTable(self._kb.vocabulary.unary_predicates))

    def owns(self, table: AtomTable) -> bool:
        """True when ``table`` is the KB's own unary atom table."""
        return table.predicates == self.table.predicates

    @property
    def classes(self) -> FrozenSet[Formula]:
        """The KB's reference classes: the conditions of its single-variable statistics."""
        return self.memo(
            "classes",
            lambda: frozenset(
                relevant.reference_class for group in self.statistics_by_property.values() for relevant in group
            ),
        )

    # -- maximum entropy ----------------------------------------------------------

    def maxent_ladder(self, vocabulary: Vocabulary, tolerances: Sequence[ToleranceVector]) -> MaxEntLadder:
        """The KB's maximum-entropy ladder over a unary ``vocabulary``.

        Solved once per (unary predicates, tolerance ladder) by
        :func:`~repro.maxent.beliefs.solve_ladder`; a KB outside the
        fragment or an infeasible rung raises the same error on every use.
        """
        key = (AtomTable.for_vocabulary(vocabulary).predicates, tuple(_tolerance_key(t) for t in tolerances))
        with self._lock:
            entry = self._ladders.get(key)
            if entry is not None:
                self._ladders.move_to_end(key)
        if entry is None:
            try:
                entry = solve_ladder(self._kb.formula, vocabulary, tolerances)
            except (UnsupportedFormula, MaxEntInfeasible) as error:
                entry = _Refused(type(error), error.args)
            with self._lock:
                entry = self._ladders.setdefault(key, entry)
                self._ladders.move_to_end(key)
                while len(self._ladders) > LADDER_LIMIT:
                    self._ladders.popitem(last=False)
        if isinstance(entry, _Refused):
            raise entry.kind(*entry.args)
        return entry
