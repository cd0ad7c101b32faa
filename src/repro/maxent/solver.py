"""Entropy maximisation over atom proportions.

Given the linear constraints extracted from a unary knowledge base, the
random-worlds degree of belief is determined by the constrained entropy
maximiser (Section 6): the number of worlds whose atom proportions are near a
vector ``p`` grows as ``exp(N * H(p))``, so as N grows all the conditional
probability mass concentrates around the maximum-entropy point of the
constraint set.  Entropy is strictly concave and the constraints are linear,
so that point is unique.

The solver finds it through the convex dual.  Stack the constraint rows over
the atoms not forced to zero into ``M``, with right-hand side ``r``; then

    D(z) = log sum_i exp(-(M^T z)_i) + z . r

is minimised over multipliers ``z`` that are free on equality rows and
non-negative on inequality rows, and the primal point is
``p = softmax(-M^T z)``.  The gradient of ``D`` is ``r - M p`` and its Hessian
``M (diag p - p p^T) M^T``.  A projected Newton method minimises it in plain
numpy (the problems have at most a few dozen rows and atoms):

* each step minimises the Newton model subject to the bounds, by a small
  active-set method: an inequality row at its bound is held there while its
  gradient or its Newton move points below it; the model is Jacobi-scaled
  and regularised in proportion to the projected gradient;
* where the inequalities force atoms to zero, the optimum lies at infinity
  and successive Newton steps repeat; the step is then doubled for as long as
  the dual keeps falling, which reaches roundoff in a few evaluations;
* the iteration stops when every projected gradient entry is below
  ``GRADIENT_TOLERANCE`` or the roundoff floor of the sum that computes it,
  when a Newton step no longer reduces the gradient or the dual, or after
  ``MAX_NEWTON_STEPS``.

Weak duality certifies infeasibility: entropy is non-negative, so
``D(z) < 0`` cannot happen when the constraint set is non-empty.  A solution
carries its multipliers, one per extracted constraint; passed back as
``warm_start`` for a nearby problem (the next tolerance of a ladder), they cut
the solve to a few Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..logic.syntax import Formula
from ..logic.tolerance import ToleranceVector, default_sequence
from ..logic.vocabulary import Vocabulary
from ..worlds.unary import AtomTable
from .constraints import ConstraintSet, extract_constraints

# A hard cap on the work of one solve.  On the paper KBs and the corpus a
# cold solve takes 4-13 Newton steps and a warm-started one 0-9; random KBs
# of up to eight predicates with clashing statistics took up to 57.
MAX_NEWTON_STEPS = 100
# The dual is minimised until each projected gradient entry (a constraint's
# violation or slack) is below this, or below the roundoff of the sum that
# computes it: relative roundoff allowed in a sum of a few dozen terms.
GRADIENT_TOLERANCE = 1e-13
ROUNDOFF = 64 * np.finfo(float).eps
# Violation below which a solution counts as converged, and above which the
# constraint set is declared infeasible.
CONVERGED_VIOLATION = 1e-6
INFEASIBLE_VIOLATION = 1e-4


class MaxEntInfeasible(ValueError):
    """Raised when the constraint set admits no probability vector."""


@dataclass(frozen=True)
class MaxEntSolution:
    """The result of one entropy maximisation.

    ``multipliers`` holds one dual multiplier per extracted constraint, in
    the order of ``labels`` (0 for rows that only involve atoms forced to
    zero); a non-zero multiplier marks a constraint that binds at the
    maximum-entropy point.
    """

    table: AtomTable
    probabilities: Tuple[float, ...]
    entropy: float
    converged: bool
    max_violation: float
    multipliers: Tuple[float, ...] = ()
    labels: Tuple[str, ...] = ()
    newton_steps: int = 0

    def probability_of(self, atom_set: Iterable[int]) -> float:
        """Total probability of a set of atoms."""
        return float(sum(self.probabilities[atom] for atom in atom_set))

    def conditional(self, numerator_atoms: Iterable[int], denominator_atoms: Iterable[int]) -> Optional[float]:
        """Conditional probability of one atom set given another (None if undefined)."""
        denominator = self.probability_of(denominator_atoms)
        if denominator <= 0.0:
            return None
        joint = self.probability_of(set(numerator_atoms) & set(denominator_atoms))
        return joint / denominator

    def binding(self) -> Dict[str, float]:
        """The non-zero multipliers by constraint label: the statistics that bind."""
        binding: Dict[str, float] = {}
        for label, multiplier in zip(self.labels, self.multipliers):
            if multiplier != 0.0:
                binding[label] = binding.get(label, 0.0) + multiplier
        return binding

    def describe(self) -> str:
        lines = []
        for atom, probability in enumerate(self.probabilities):
            lines.append(f"  {self.table.describe(atom):40s} {probability:.6f}")
        return "\n".join(lines)


def entropy(probabilities: Sequence[float]) -> float:
    """Shannon entropy (natural log) of a probability vector, treating 0 log 0 = 0."""
    total = 0.0
    for value in probabilities:
        if value > 0.0:
            total -= value * math.log(value)
    return total


def solve(constraint_set: ConstraintSet, warm_start: Optional[Sequence[float]] = None) -> MaxEntSolution:
    """Maximise entropy subject to the extracted constraints.

    ``warm_start`` is the ``multipliers`` of an earlier solution over the same
    constraint rows, such as the previous tolerance of a ladder; it is
    ignored when its length differs.
    """
    num_atoms = constraint_set.num_atoms
    free_atoms = [atom for atom in range(num_atoms) if atom not in constraint_set.zero_atoms]
    if not free_atoms:
        raise MaxEntInfeasible("every atom is forced to proportion zero")

    constraints = constraint_set.constraints
    rows: List[np.ndarray] = []
    kept: List[int] = []
    for index, constraint in enumerate(constraints):
        row = constraint.as_array()[free_atoms]
        if not np.any(row):
            # The constraint only involves atoms already forced to zero: it is
            # trivially satisfied (bound >= 0) or trivially infeasible.
            if constraint.equality and abs(constraint.bound) > 1e-12:
                raise MaxEntInfeasible(f"constraint {constraint.label!r} cannot be met")
            if not constraint.equality and constraint.bound < -1e-12:
                raise MaxEntInfeasible(f"constraint {constraint.label!r} cannot be met")
            continue
        rows.append(row)
        kept.append(index)

    matrix = np.vstack(rows) if rows else np.zeros((0, len(free_atoms)))
    rhs = np.array([constraints[index].bound for index in kept], dtype=float)
    equality = np.array([constraints[index].equality for index in kept], dtype=bool)
    start = np.zeros(len(kept))
    if warm_start is not None and len(warm_start) == len(constraints):
        start = np.asarray(warm_start, dtype=float)[kept]

    multipliers, steps = _minimise_dual(matrix, rhs, equality, start)
    _, primal, _ = _dual(matrix, rhs, multipliers)
    violation = _max_violation(primal, matrix, rhs, equality)
    if violation > INFEASIBLE_VIOLATION:
        raise MaxEntInfeasible(f"no feasible proportion vector found (max constraint violation {violation:.3g})")

    full = np.zeros(num_atoms)
    full[free_atoms] = primal
    per_constraint = np.zeros(len(constraints))
    per_constraint[kept] = multipliers
    return MaxEntSolution(
        table=constraint_set.table,
        probabilities=tuple(float(v) for v in full),
        entropy=entropy(full),
        converged=violation < CONVERGED_VIOLATION,
        max_violation=float(violation),
        multipliers=tuple(float(v) for v in per_constraint),
        labels=tuple(constraint.label for constraint in constraints),
        newton_steps=steps,
    )


def _dual(matrix: np.ndarray, rhs: np.ndarray, z: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """``D(z)``, the primal point ``softmax(-M^T z)`` and the exponents ``-M^T z``."""
    exponents = -(z @ matrix)
    top = float(exponents.max())
    weights = np.exp(exponents - top)
    total = float(weights.sum())
    return top + math.log(total) + float(z @ rhs), weights / total, exponents


def _minimise_dual(
    matrix: np.ndarray, rhs: np.ndarray, equality: np.ndarray, z: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Projected Newton on the dual from ``z``; returns the multipliers and the step count."""
    lower = np.where(equality, -np.inf, 0.0)
    magnitude = np.abs(matrix)
    z = np.maximum(z, lower)
    value, p, exponents = _dual(matrix, rhs, z)
    residual = _residual(matrix, rhs, equality, z, p)
    previous_move: Optional[np.ndarray] = None
    for step in range(MAX_NEWTON_STEPS):
        noise = ROUNDOFF * (1.0 + abs(float(exponents.max())) + abs(float(z @ rhs)))
        if value < -noise - 1e-12:
            raise MaxEntInfeasible(
                f"the dual objective reached {value:.3g} < 0: the constraints admit no proportion vector"
            )
        # Each gradient entry sums terms of size |r_j| and |M_ji| p_i, where
        # p_i carries the relative error of its exponent and of the largest
        # one, each a sum of terms of size |M_ji z_j|.
        size = np.abs(z) @ magnitude
        spread = 1.0 + size + size[np.argmax(exponents)]
        floor = ROUNDOFF * (np.abs(rhs) + magnitude @ (p * spread))
        if np.all(residual <= np.maximum(floor, GRADIENT_TOLERANCE)):
            return z, step

        expected = matrix @ p
        gradient = rhs - expected
        hessian = (matrix * p) @ matrix.T - np.outer(expected, expected)
        direction = _newton_step(hessian, gradient, z, equality)
        predicted = float(gradient @ direction)

        # Backtrack until the dual falls enough.  Near the optimum the fall
        # is below the dual's own roundoff; a full step is then taken only if
        # it halves the projected gradient.
        alpha = 1.0
        while True:
            candidate = np.maximum(z + alpha * direction, lower)
            new_value, new_p, new_exponents = _dual(matrix, rhs, candidate)
            if alpha == 1.0 and -predicted <= noise:
                new_residual = _residual(matrix, rhs, equality, candidate, new_p)
                if new_value <= value + noise and new_residual.max() <= 0.5 * residual.max():
                    break
                return z, step
            if new_value <= value + 1e-4 * alpha * predicted:
                new_residual = _residual(matrix, rhs, equality, candidate, new_p)
                break
            alpha *= 0.5
            if alpha < 1e-12:
                return z, step

        # The optimum lies at infinity along a direction that Newton keeps
        # repeating: double the step while the dual keeps falling.
        if alpha == 1.0 and _repeats(candidate - z, previous_move):
            for _ in range(60):
                alpha *= 2.0
                further = np.maximum(z + alpha * direction, lower)
                further_value, further_p, further_exponents = _dual(matrix, rhs, further)
                if not further_value < new_value - noise:
                    break
                candidate, new_value, new_p, new_exponents = further, further_value, further_p, further_exponents
            new_residual = _residual(matrix, rhs, equality, candidate, new_p)
        previous_move = candidate - z
        z, value, p, exponents, residual = candidate, new_value, new_p, new_exponents, new_residual
    return z, MAX_NEWTON_STEPS


def _residual(matrix: np.ndarray, rhs: np.ndarray, equality: np.ndarray, z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The projected gradient's size per row: at a row's bound only a push beyond it counts."""
    gradient = rhs - matrix @ p
    return np.abs(np.where(~equality & (z <= 0.0), np.minimum(gradient, 0.0), gradient))


def _newton_step(hessian: np.ndarray, gradient: np.ndarray, z: np.ndarray, equality: np.ndarray) -> np.ndarray:
    """The step ``d`` minimising the Newton model ``g.d + d.H d / 2`` subject to
    ``z + d >= 0`` on inequality rows, by a primal active-set method.

    The model is Jacobi-scaled and shifted by the size of the scaled
    projected gradient (capped at 1e-2): the shift keeps the step bounded
    along directions where the Hessian is singular (collinear rows, or rows
    whose atoms are vanishing) and vanishes at the optimum, so convergence
    stays quadratic.

    Rows start held at their bound when their gradient points below it; a
    free row that reaches its bound is held, and a held row whose model
    gradient points into the feasible side is freed.
    """
    scale = 1.0 / np.sqrt(np.maximum(np.diag(hessian), 1e-200))
    model = hessian * np.outer(scale, scale)
    slope = gradient * scale
    held = ~equality & (z <= 0.0) & (gradient > 0.0)
    model[np.diag_indices_from(model)] += min(1e-2, max(float(np.max(np.abs(slope[~held]), initial=0.0)), 1e-15))
    floor = np.where(equality, -np.inf, -z / scale)
    step = np.zeros_like(z)
    for _ in range(2 * len(z) + 2):
        free = ~held
        target = step.copy()
        target[free] = np.linalg.solve(
            model[np.ix_(free, free)], -(slope[free] + model[np.ix_(free, held)] @ step[held])
        )
        move = target - step
        blocking = free & (target < floor)
        if blocking.any():
            ratios = (floor[blocking] - step[blocking]) / move[blocking]
            row = np.flatnonzero(blocking)[np.argmin(ratios)]
            step += ratios.min() * move
            step[row] = floor[row]
            held[row] = True
            continue
        step = target
        pull = np.where(held, slope + model @ step, 0.0)
        if pull.min(initial=0.0) >= 0.0:
            break
        held[np.argmin(pull)] = False
    return scale * step


def _repeats(move: np.ndarray, previous: Optional[np.ndarray]) -> bool:
    """True when ``move`` is about as long as ``previous`` and points the same way."""
    if previous is None:
        return False
    length = float(np.linalg.norm(move))
    previous_length = float(np.linalg.norm(previous))
    return length >= 0.5 * previous_length > 0.0 and float(move @ previous) >= 0.99 * length * previous_length


def _max_violation(p: np.ndarray, matrix: np.ndarray, rhs: np.ndarray, equality: np.ndarray) -> float:
    violation = abs(float(np.sum(p) - 1.0))
    if matrix.shape[0]:
        slack = matrix @ p - rhs
        violation = max(violation, float(np.max(np.where(equality, np.abs(slack), slack), initial=0.0)))
    return violation


def solve_knowledge_base(
    knowledge_base: Formula,
    vocabulary: Vocabulary,
    tolerance: ToleranceVector,
) -> MaxEntSolution:
    """Extract constraints from a unary KB at one tolerance and maximise entropy."""
    constraint_set = extract_constraints(knowledge_base, vocabulary, tolerance)
    return solve(constraint_set)


@dataclass(frozen=True)
class MaxEntSequence:
    """Max-entropy solutions for a shrinking sequence of tolerance vectors."""

    tolerances: Tuple[ToleranceVector, ...]
    solutions: Tuple[MaxEntSolution, ...]

    @property
    def final(self) -> MaxEntSolution:
        return self.solutions[-1]

    def limiting_probabilities(self) -> Tuple[float, ...]:
        """Atom probabilities at the smallest tolerance (the tau -> 0 proxy)."""
        return self.final.probabilities


def solve_sequence(
    knowledge_base: Formula,
    vocabulary: Vocabulary,
    tolerances: Iterable[ToleranceVector] | None = None,
) -> MaxEntSequence:
    """Solve the entropy maximisation along a shrinking tolerance sequence,
    warm-starting each tolerance from the previous one's multipliers."""
    tolerance_list = list(tolerances) if tolerances is not None else list(default_sequence())
    solutions: List[MaxEntSolution] = []
    for tolerance in tolerance_list:
        constraint_set = extract_constraints(knowledge_base, vocabulary, tolerance)
        solutions.append(solve(constraint_set, warm_start=solutions[-1].multipliers if solutions else None))
    return MaxEntSequence(tuple(tolerance_list), tuple(solutions))
