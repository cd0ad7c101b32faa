"""Lightweight entailment checks used by the analytic theorem engines.

The closed-form theorems of Section 5 have side conditions of two kinds:

* ``KB |= psi(c)`` — the knowledge base knows that the individual(s) named in
  the query belong to the reference class;
* ``KB |= forall x (psi0(x) -> psi(x))`` (or ``-> not psi(x)``) — one
  reference class is contained in (or disjoint from) another.

Both are checked here with decision procedures that are *sound but not
complete*: a positive answer is always correct, a negative answer may simply
mean "could not establish it", in which case the engine falls back to the
semantic computation (max-entropy or exact counting).  Ground entailment is
decided propositionally over the ground atoms involved, with single-variable
universal conjuncts of the KB instantiated at the relevant constants.  Class
relations are decided over the atoms of the unary vocabulary restricted by the
KB's universal conjuncts.

Everything here depends on the KB alone once the classes and constants are
fixed, so the KB's prepared state (:mod:`repro.core.prepared`) keeps the
premises per constant, the allowed atoms, the atom sets of the KB's reference
classes and the verdicts about them over the KB's own atom table.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..logic.substitution import constants_of, free_vars, substitute
from ..logic.syntax import And, Atom, Bottom, Const, Equals, Formula, Iff, Implies, Not, Or, Top
from ..maxent.atoms import atoms_satisfying
from ..worlds.unary import AtomTable, UnsupportedFormula
from .knowledge_base import KnowledgeBase


MAX_PROPOSITIONAL_ATOMS = 18


# ---------------------------------------------------------------------------
# Ground (propositional) entailment
# ---------------------------------------------------------------------------


def _ground_atoms(formula: Formula, atoms: Set[Tuple[str, Tuple[str, ...]]]) -> bool:
    """Collect ground atoms; return False if the formula is not ground propositional."""
    if isinstance(formula, (Top, Bottom)):
        return True
    if isinstance(formula, Atom):
        names = []
        for arg in formula.args:
            if not isinstance(arg, Const):
                return False
            names.append(arg.name)
        atoms.add((formula.predicate, tuple(names)))
        return True
    if isinstance(formula, Equals):
        # Ground equalities between distinct constant symbols are treated as
        # opaque propositions; the unique-names bias is handled semantically.
        if isinstance(formula.left, Const) and isinstance(formula.right, Const):
            atoms.add(("=", (formula.left.name, formula.right.name)))
            return True
        return False
    if isinstance(formula, Not):
        return _ground_atoms(formula.operand, atoms)
    if isinstance(formula, (And, Or)):
        return all(_ground_atoms(o, atoms) for o in formula.operands)
    if isinstance(formula, Implies):
        return _ground_atoms(formula.antecedent, atoms) and _ground_atoms(formula.consequent, atoms)
    if isinstance(formula, Iff):
        return _ground_atoms(formula.left, atoms) and _ground_atoms(formula.right, atoms)
    return False


def _eval_ground(formula: Formula, assignment: Dict[Tuple[str, Tuple[str, ...]], bool]) -> bool:
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Atom):
        key = (formula.predicate, tuple(arg.name for arg in formula.args))  # type: ignore[union-attr]
        return assignment[key]
    if isinstance(formula, Equals):
        key = ("=", (formula.left.name, formula.right.name))  # type: ignore[union-attr]
        return assignment[key]
    if isinstance(formula, Not):
        return not _eval_ground(formula.operand, assignment)
    if isinstance(formula, And):
        return all(_eval_ground(o, assignment) for o in formula.operands)
    if isinstance(formula, Or):
        return any(_eval_ground(o, assignment) for o in formula.operands)
    if isinstance(formula, Implies):
        return (not _eval_ground(formula.antecedent, assignment)) or _eval_ground(
            formula.consequent, assignment
        )
    if isinstance(formula, Iff):
        return _eval_ground(formula.left, assignment) == _eval_ground(formula.right, assignment)
    raise UnsupportedFormula(f"{formula!r} is not ground propositional")


class GroundContext:
    """Propositional context for entailment about named individuals.

    Built from a knowledge base: all ground, quantifier-free conjuncts plus
    every single-variable universal conjunct instantiated at the constants of
    interest.
    """

    def __init__(self, knowledge_base: KnowledgeBase, constants: Sequence[str]):
        prepared = knowledge_base.prepared
        premises = list(prepared.memo(("premises",), partial(_fact_premises, knowledge_base)))
        for constant in constants:
            build = partial(_instantiated_premises, knowledge_base, constant)
            premises.extend(prepared.memo(("premises", constant), build) if constant in prepared.constants else build())
        self._premises = premises

    def entails(self, goal: Formula) -> bool:
        """Sound propositional entailment check of a ground goal."""
        if not _is_propositional_candidate(goal):
            return False
        atoms: Set[Tuple[str, Tuple[str, ...]]] = set()
        for premise in self._premises:
            _ground_atoms(premise, atoms)
        _ground_atoms(goal, atoms)
        atom_list = sorted(atoms)
        if len(atom_list) > MAX_PROPOSITIONAL_ATOMS:
            return False
        for bits in itertools.product((False, True), repeat=len(atom_list)):
            assignment = dict(zip(atom_list, bits))
            if all(_eval_ground(p, assignment) for p in self._premises):
                if not _eval_ground(goal, assignment):
                    return False
        return True


def _fact_premises(knowledge_base: KnowledgeBase) -> Tuple[Formula, ...]:
    """The KB's ground propositional conjuncts."""
    return tuple(
        fact for fact in knowledge_base.sentences if not free_vars(fact) and _is_propositional_candidate(fact)
    )


def _instantiated_premises(knowledge_base: KnowledgeBase, constant: str) -> Tuple[Formula, ...]:
    """The KB's single-variable universals instantiated at ``constant``, where propositional."""
    premises: List[Formula] = []
    for universal in knowledge_base.universal_conjuncts():
        body = universal.body
        if free_vars(body) != {universal.variable}:
            continue
        instantiated = substitute(body, {universal.variable: Const(constant)})
        if _is_propositional_candidate(instantiated):
            premises.append(instantiated)
    return tuple(premises)


def _is_propositional_candidate(formula: Formula) -> bool:
    atoms: Set[Tuple[str, Tuple[str, ...]]] = set()
    return _ground_atoms(formula, atoms)


def kb_entails_ground(knowledge_base: KnowledgeBase, goal: Formula) -> bool:
    """``KB |= goal`` for a ground quantifier-free goal (sound, incomplete)."""
    context = GroundContext(knowledge_base, sorted(constants_of(goal)))
    return context.entails(goal)


# ---------------------------------------------------------------------------
# Relations between reference classes (unary, single-variable formulas)
# ---------------------------------------------------------------------------


def allowed_atoms(knowledge_base: KnowledgeBase, table: AtomTable) -> FrozenSet[int]:
    """Atoms not ruled out by the KB's single-variable universal conjuncts."""
    prepared = knowledge_base.prepared
    if prepared.owns(table):
        return prepared.memo(("allowed-atoms",), lambda: _allowed_atoms(knowledge_base, table))
    return _allowed_atoms(knowledge_base, table)


def _allowed_atoms(knowledge_base: KnowledgeBase, table: AtomTable) -> FrozenSet[int]:
    allowed = set(range(table.num_atoms))
    for universal in knowledge_base.universal_conjuncts():
        body = universal.body
        if free_vars(body) != {universal.variable} or constants_of(body):
            continue
        try:
            satisfying = atoms_satisfying(body, table, subject=universal.variable)
        except UnsupportedFormula:
            continue
        allowed &= set(satisfying)
    return frozenset(allowed)


def _class_atoms(class_formula: Formula, knowledge_base: KnowledgeBase, table: AtomTable) -> Optional[FrozenSet[int]]:
    """The allowed atoms of a single-variable class (``None`` outside the atom-set fragment)."""
    prepared = knowledge_base.prepared

    def build() -> Optional[FrozenSet[int]]:
        try:
            return atoms_satisfying(class_formula, table) & allowed_atoms(knowledge_base, table)
        except UnsupportedFormula:
            return None

    if prepared.owns(table) and class_formula in prepared.classes:
        return prepared.memo(("class-atoms", class_formula), build)
    return build()


def class_relation(
    class_a: Formula,
    class_b: Formula,
    knowledge_base: KnowledgeBase,
    table: AtomTable,
) -> str:
    """The provable relation between two reference classes.

    Returns ``"subset"`` when ``KB |= forall x (a -> b)``, ``"disjoint"`` when
    ``KB |= forall x (a -> not b)``, ``"equal"`` when both directions hold, and
    ``"other"`` when neither could be established.  Classes must be
    quantifier-free unary formulas over a single variable; anything else
    yields ``"other"``.
    """
    atoms_a = _class_atoms(class_a, knowledge_base, table)
    atoms_b = _class_atoms(class_b, knowledge_base, table)
    if atoms_a is None or atoms_b is None:
        return "other"
    if atoms_a <= atoms_b and atoms_b <= atoms_a:
        return "equal"
    if atoms_a <= atoms_b:
        return "subset"
    if not (atoms_a & atoms_b):
        return "disjoint"
    return "other"


def entails_membership(
    knowledge_base: KnowledgeBase,
    class_formula: Formula,
    constant: str,
    table: Optional[AtomTable] = None,
) -> bool:
    """``KB |= class_formula[c/x]`` — the constant provably belongs to the class.

    First tries the propositional route (ground facts plus instantiated
    universals); for unary single-variable classes it additionally uses the
    atom-set route, which captures reasoning such as "EEJ(Eric) therefore
    EEJ(Eric) or FC(Eric)".
    """
    prepared = knowledge_base.prepared

    def build() -> bool:
        return _entails_membership(knowledge_base, class_formula, constant, table)

    if (
        class_formula in prepared.classes
        and constant in prepared.constants
        and (table is None or prepared.owns(table))
    ):
        return prepared.memo(("membership", class_formula, constant, table is not None), build)
    return build()


def _entails_membership(
    knowledge_base: KnowledgeBase,
    class_formula: Formula,
    constant: str,
    table: Optional[AtomTable],
) -> bool:
    variables = sorted(free_vars(class_formula))
    if len(variables) > 1:
        return False
    if variables:
        goal = substitute(class_formula, {variables[0]: Const(constant)})
    else:
        goal = class_formula
    if kb_entails_ground(knowledge_base, goal):
        return True
    if table is None:
        return False
    class_atoms = _class_atoms(class_formula, knowledge_base, table)
    if class_atoms is None:
        return False
    known = knowledge_base.facts_about(constant)
    if not known:
        return False
    try:
        from ..logic.substitution import abstract_constant

        known_formula = And(tuple(abstract_constant(f, constant) for f in known))
        known_atoms = set(atoms_satisfying(known_formula, table))
    except UnsupportedFormula:
        return False
    known_atoms &= set(allowed_atoms(knowledge_base, table))
    return bool(known_atoms) and known_atoms <= class_atoms
