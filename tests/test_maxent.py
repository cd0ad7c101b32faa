"""Unit tests for the maximum-entropy pipeline (atoms, constraints, solver, beliefs)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import RandomWorlds, RandomWorldsError
from repro.logic import parse
from repro.logic.syntax import Not
from repro.logic.tolerance import ToleranceVector, default_sequence
from repro.logic.vocabulary import Vocabulary
from repro.maxent.atoms import atoms_satisfying, indicator
from repro.maxent.beliefs import VANISHING_EVIDENCE, degree_of_belief_maxent
from repro.maxent.constraints import extract_constraints
from repro.maxent.solver import (
    MaxEntInfeasible,
    entropy,
    solve,
    solve_knowledge_base,
    solve_sequence,
)
from repro.service import BeliefResponse, QueryRequest, open_session
from repro.workloads import corpus, generators, paper_kbs
from repro.worlds.unary import AtomTable, UnsupportedFormula


TABLE = AtomTable(("Bird", "Fly", "Penguin"))


class TestAtomSets:
    def test_single_predicate(self):
        atoms = atoms_satisfying(parse("Bird(x)"), TABLE)
        assert all(TABLE.atom_satisfies(a, "Bird") for a in atoms)
        assert len(atoms) == 4

    def test_boolean_combination(self):
        atoms = atoms_satisfying(parse("Bird(x) and not Fly(x)"), TABLE)
        assert len(atoms) == 2

    def test_disjunction(self):
        atoms = atoms_satisfying(parse("Bird(x) or Penguin(x)"), TABLE)
        assert len(atoms) == 6

    def test_constant_subject_is_allowed(self):
        assert atoms_satisfying(parse("Bird(Tweety)"), TABLE) == atoms_satisfying(
            parse("Bird(x)"), TABLE
        )

    def test_mixed_subjects_rejected(self):
        with pytest.raises(UnsupportedFormula):
            atoms_satisfying(parse("Bird(x) and Fly(y)"), TABLE)

    def test_indicator_vector(self):
        atoms = atoms_satisfying(parse("Bird(x)"), TABLE)
        vector = indicator(atoms, TABLE.num_atoms)
        assert sum(vector) == len(atoms)


class TestConstraintExtraction:
    def test_forall_forces_zero_atoms(self):
        kb = parse("forall x. (Penguin(x) -> Bird(x))")
        vocabulary = Vocabulary.from_formulas([kb])
        constraints = extract_constraints(kb, vocabulary, ToleranceVector.uniform(0.05))
        assert constraints.zero_atoms  # penguins that are not birds are impossible

    def test_statistic_becomes_two_inequalities(self):
        kb = parse("%(Fly(x) | Bird(x); x) ~= 0.5")
        vocabulary = Vocabulary.from_formulas([kb])
        constraints = extract_constraints(kb, vocabulary, ToleranceVector.uniform(0.05))
        assert len(constraints.constraints) == 2

    def test_ground_facts_become_evidence(self):
        kb = parse("%(Fly(x) | Bird(x); x) ~= 0.5 and Bird(Tweety)")
        vocabulary = Vocabulary.from_formulas([kb])
        constraints = extract_constraints(kb, vocabulary, ToleranceVector.uniform(0.05))
        assert "Tweety" in constraints.evidence

    def test_multi_constant_fact_rejected(self):
        kb = parse("Likes1(C) and Likes2(D) and (C = D)")
        vocabulary = Vocabulary.from_formulas([kb])
        with pytest.raises(UnsupportedFormula):
            extract_constraints(kb, vocabulary, ToleranceVector.uniform(0.05))

    def test_non_unary_vocabulary_rejected(self):
        kb = parse("%(Likes(x, y); x, y) ~= 0.5")
        vocabulary = Vocabulary.from_formulas([kb])
        with pytest.raises(UnsupportedFormula):
            extract_constraints(kb, vocabulary, ToleranceVector.uniform(0.05))

    def test_feasibility_check(self):
        kb = parse("%(Bird(x); x) ~= 0.3")
        vocabulary = Vocabulary.from_formulas([kb])
        constraints = extract_constraints(kb, vocabulary, ToleranceVector.uniform(0.01))
        # Atom 1 is the Bird atom (bit 0 set), atom 0 is the non-Bird atom.
        assert constraints.feasible([0.7, 0.3])
        assert not constraints.feasible([0.4, 0.6])


class TestSolver:
    def test_unconstrained_solution_is_uniform(self):
        kb = parse("true")
        vocabulary = Vocabulary({"P": 1, "Q": 1}, {}, ())
        solution = solve_knowledge_base(kb, vocabulary, ToleranceVector.uniform(0.05))
        assert all(p == pytest.approx(0.25, abs=1e-4) for p in solution.probabilities)
        assert solution.entropy == pytest.approx(entropy([0.25] * 4), abs=1e-6)

    def test_equality_constraint_is_respected(self):
        kb = parse("%(Bird(x); x) == 0.1")
        vocabulary = Vocabulary({"Bird": 1, "Black": 1}, {}, ())
        solution = solve_knowledge_base(kb, vocabulary, ToleranceVector.uniform(0.05))
        bird_atoms = atoms_satisfying(parse("Bird(x)"), solution.table)
        assert solution.probability_of(bird_atoms) == pytest.approx(0.1, abs=1e-4)

    def test_black_birds_maxent_point(self):
        kb = parse("%(Black(x) | Bird(x); x) ~=[1] 0.2 and %(Bird(x); x) ~=[2] 0.1")
        vocabulary = Vocabulary.from_formulas([kb])
        solution = solve_knowledge_base(kb, vocabulary, ToleranceVector.uniform(0.001))
        black_atoms = atoms_satisfying(parse("Black(x)"), solution.table)
        assert solution.probability_of(black_atoms) == pytest.approx(0.47, abs=0.01)

    def test_infeasible_constraints_raise(self):
        kb = parse("%(P(x); x) ~= 0.9 and forall x. not P(x)")
        vocabulary = Vocabulary.from_formulas([kb])
        with pytest.raises(MaxEntInfeasible):
            solve_knowledge_base(kb, vocabulary, ToleranceVector.uniform(0.001))

    def test_solve_sequence_tracks_tolerances(self):
        kb = parse("%(P(x); x) <~ 0.3")
        vocabulary = Vocabulary.from_formulas([kb])
        sequence = solve_sequence(kb, vocabulary)
        assert len(sequence.solutions) == len(sequence.tolerances)
        final_p = sequence.final.probability_of(atoms_satisfying(parse("P(x)"), sequence.final.table))
        assert final_p <= 0.31


class TestBeliefs:
    def test_hepatitis(self):
        kb = parse("Jaun(Eric) and %(Hep(x) | Jaun(x); x) ~= 0.8")
        vocabulary = Vocabulary.from_formulas([kb, parse("Hep(Eric)")])
        belief = degree_of_belief_maxent(parse("Hep(Eric)"), kb, vocabulary)
        assert belief.exists
        assert belief.value == pytest.approx(0.8, abs=1e-3)

    def test_section_six_worked_example(self):
        kb = parse("(forall x. P1(x)) and %(P1(x) and P2(x); x) <~ 0.3")
        vocabulary = Vocabulary.from_formulas([kb, parse("P2(C)")])
        belief = degree_of_belief_maxent(parse("P2(C)"), kb, vocabulary)
        assert belief.value == pytest.approx(0.3, abs=1e-3)

    def test_negated_query(self):
        kb = parse("Jaun(Eric) and %(Hep(x) | Jaun(x); x) ~= 0.8")
        vocabulary = Vocabulary.from_formulas([kb, parse("Hep(Eric)")])
        belief = degree_of_belief_maxent(parse("not Hep(Eric)"), kb, vocabulary)
        assert belief.value == pytest.approx(0.2, abs=1e-3)

    def test_conjunction_across_constants_multiplies(self):
        kb = parse(
            "Jaun(Eric) and %(Hep(x) | Jaun(x); x) ~=[1] 0.8 and Jaun(Tom)"
        )
        vocabulary = Vocabulary.from_formulas([kb, parse("Hep(Eric)")])
        belief = degree_of_belief_maxent(parse("Hep(Eric) and Hep(Tom)"), kb, vocabulary)
        assert belief.value == pytest.approx(0.64, abs=2e-3)

    def test_proportion_query_rejected(self):
        kb = parse("%(P(x); x) <~ 0.3")
        vocabulary = Vocabulary.from_formulas([kb])
        with pytest.raises(UnsupportedFormula):
            degree_of_belief_maxent(parse("%(P(x); x) <~ 0.5"), kb, vocabulary)

    def test_unknown_individual_is_near_indifference(self):
        # With nothing known about Opus the answer sits near 1/2, with a small
        # bias because the conditional statistic lowers the entropy of the
        # jaundiced part of the population (compare Example 5.29).
        kb = parse("%(Hep(x) | Jaun(x); x) ~= 0.8")
        vocabulary = Vocabulary.from_formulas([kb, parse("Jaun(Opus)")])
        belief = degree_of_belief_maxent(parse("Jaun(Opus)"), kb, vocabulary)
        assert belief.value is not None
        assert 0.40 <= belief.value <= 0.50


def _solve_at(kb_text: str, tau: float):
    kb = parse(kb_text)
    return solve_knowledge_base(kb, Vocabulary.from_formulas([kb]), ToleranceVector.uniform(tau))


class TestDualSolver:
    @pytest.mark.parametrize("tau", [0.05, 0.01, 0.002048])
    def test_closed_form_upper_band(self, tau):
        # Maxent would split P evenly; the band's upper edge binds exactly.
        solution = _solve_at("%(P(x); x) ~= 0.3", tau)
        mass = solution.probability_of(atoms_satisfying(parse("P(x)"), solution.table))
        assert mass == pytest.approx(0.3 + tau, abs=1e-12)
        assert solution.converged

    @pytest.mark.parametrize(
        "num_predicates, emptied",
        # Each of E18's seed-11 KBs states two disjoint bands on one
        # conditional, which forces its reference class to proportion zero:
        # the dual optimum lies at infinity.
        [(2, "P0(x)"), (4, "P1(x)"), (6, "P4(x)")],
    )
    def test_disjoint_bands_converge_at_infinity(self, num_predicates, emptied):
        kb = generators.random_unary_kb(num_predicates, num_statistics=num_predicates, seed=11)
        solution = solve_knowledge_base(kb.formula, kb.vocabulary, ToleranceVector.uniform(0.02))
        assert solution.converged
        assert solution.probability_of(atoms_satisfying(parse(emptied), solution.table)) < 1e-9
        assert solution.newton_steps < 20

    @pytest.mark.parametrize(
        "num_predicates, num_statistics, seed, tau",
        # Random KBs whose statistics clash empty most classes: the maxent
        # point sits on a low-dimensional face (one atom, for all but the first).
        [(6, 8, 20, 0.02), (4, 6, 14, 0.02), (5, 8, 148, 0.08), (6, 7, 31, 0.08)],
    )
    def test_clashing_statistics_converge(self, num_predicates, num_statistics, seed, tau):
        kb = generators.random_unary_kb(num_predicates, num_statistics=num_statistics, seed=seed)
        solution = solve_knowledge_base(kb.formula, kb.vocabulary, ToleranceVector.uniform(tau))
        assert solution.converged
        assert solution.newton_steps <= 40

    @pytest.mark.parametrize(
        "kb_text",
        [
            "%(P(x); x) ~=[1] 0.2 and %(P(x); x) ~=[2] 0.6",
            "%(P(x); x) == 0.2 and %(P(x); x) == 0.6",
            "%(P(x) | Q(x); x) >= 0.9 and %(P(x); x) <= 0.1 and %(Q(x); x) >= 0.5",
        ],
    )
    def test_infeasible_constraint_sets_raise(self, kb_text):
        with pytest.raises(MaxEntInfeasible):
            _solve_at(kb_text, 0.01)

    def test_warm_start_matches_cold_start_in_fewer_steps(self):
        kb = corpus.build("deep_taxonomy", 38, depth=4).knowledge_base
        previous, current = list(default_sequence())[2:4]
        earlier = solve(extract_constraints(kb.formula, kb.vocabulary, previous))
        constraints = extract_constraints(kb.formula, kb.vocabulary, current)
        cold = solve(constraints)
        warm = solve(constraints, warm_start=earlier.multipliers)
        assert max(abs(a - b) for a, b in zip(warm.probabilities, cold.probabilities)) <= 1e-9
        assert warm.newton_steps <= 6 < cold.newton_steps

    def test_mismatched_warm_start_is_ignored(self):
        kb = parse("%(P(x); x) ~= 0.3")
        constraints = extract_constraints(kb, Vocabulary.from_formulas([kb]), ToleranceVector.uniform(0.01))
        assert solve(constraints, warm_start=(5.0,)) == solve(constraints)

    def test_solves_are_deterministic(self):
        kb = corpus.build("diagnosis_network", 0, diseases=2, symptoms=2).knowledge_base
        constraints = extract_constraints(kb.formula, kb.vocabulary, ToleranceVector.uniform(0.01))
        first, second = solve(constraints), solve(constraints)
        assert first.probabilities == second.probabilities
        assert first.multipliers == second.multipliers

    def test_multipliers_cover_every_constraint(self):
        kb = parse("(forall x. P1(x)) and %(P1(x) and P2(x); x) <~ 0.3")
        vocabulary = Vocabulary.from_formulas([kb])
        constraints = extract_constraints(kb, vocabulary, ToleranceVector.uniform(0.01))
        solution = solve(constraints)
        assert len(solution.multipliers) == len(solution.labels) == len(constraints.constraints)
        # The forall rows only touch atoms forced to zero: skipped, multiplier 0.
        assert all(m == 0.0 for label, m in zip(solution.labels, solution.multipliers) if label.startswith("forall"))
        assert solution.binding() == {solution.labels[-1]: solution.multipliers[-1]}
        assert solution.labels[-1].endswith("0.3 (upper)") and solution.multipliers[-1] > 0.0


class TestVanishingEvidence:
    """near_inconsistent's two statistics pin one conditional 1/64 apart: once
    tau is below half the gap, only an empty reference class meets both."""

    SCENARIO = corpus.build("near_inconsistent", 0, pairs=1, band=64)

    def _belief(self, query_text):
        kb = self.SCENARIO.knowledge_base
        query = parse(query_text)
        vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
        return degree_of_belief_maxent(query, kb.formula, vocabulary)

    @pytest.mark.parametrize("query_index", [0, 1])
    def test_query_splitting_a_vanishing_class_has_no_limit(self, query_index):
        belief = self._belief(self.SCENARIO.queries[query_index])
        assert belief.value is not None
        assert not belief.exists
        assert "maximum-entropy mass" in belief.note
        evidence = atoms_satisfying(parse("Q0(x)"), belief.solution.table)
        assert belief.solution.probability_of(evidence) < VANISHING_EVIDENCE

    def test_query_decided_by_the_evidence_keeps_its_limit(self):
        asserted = self.SCENARIO.queries[2]
        assert asserted.startswith("Q0(")
        held = self._belief(asserted)
        assert (held.value, held.exists) == (1.0, True)
        denied = self._belief(f"not {asserted}")
        assert (denied.value, denied.exists) == (0.0, True)


class TestBinding:
    def test_hepatitis_binds_its_lower_band(self):
        with open_session(paper_kbs.hepatitis_simple()) as session:
            response = session.submit(QueryRequest(query="Hep(Eric)", method="maxent"))
        binding = response.result.diagnostics["binding"]
        assert list(binding) == ["%(Hep(x) | Jaun(x); x) ~=[1] 0.8 (lower)"]
        assert binding["%(Hep(x) | Jaun(x); x) ~=[1] 0.8 (lower)"] > 0.0
        assert BeliefResponse.from_dict(json.loads(json.dumps(response.to_dict()))) == response


# The maxent route's `exists` flag for phi and not phi on every paper KB, or
# None where the route does not apply (non-unary vocabulary, or a KB conjunct
# outside the maximum-entropy fragment).
PAPER_MAXENT_EXISTS = {
    "hepatitis_simple": (True, True),
    "hepatitis_full": (True, True),
    "tweety_fly": (True, True),
    "tweety_yellow": (True, True),
    "tweety_warm_blooded": (True, True),
    "tweety_easy_to_see": (True, True),
    "tay_sachs": (True, True),
    "elephant_zookeeper": (None, None),
    "chirping_magpie": (True, True),
    "moody_magpie": (True, True),
    "nixon_diamond": (None, None),
    "fred_heart_disease": (True, True),
    "hepatitis_and_age": (True, True),
    "black_birds": (True, True),
    "lottery": (None, None),
    "lifschitz_names": (None, None),
    "broken_arm": (True, True),
    "colours_two_way": (True, True),
    "colours_three_way": (True, True),
    "flying_birds_two_predicates": (True, True),
    "flying_birds_refined": (True, True),
    "swimming_taxonomy": (True, True),
    "tall_parent": (None, None),
}


@pytest.mark.parametrize("name, factory, query_text", paper_kbs.benchmark_suite())
def test_paper_kb_maxent_exists_flags(name, factory, query_text):
    engine = RandomWorlds()
    kb = factory()
    flags = []
    for query in (parse(query_text), Not(parse(query_text))):
        try:
            flags.append(engine.dispatch(query, kb, method="maxent").exists)
        except RandomWorldsError:
            flags.append(None)
    assert tuple(flags) == PAPER_MAXENT_EXISTS[name]


def test_service_import_loads_no_scipy():
    script = "import sys, repro.service, repro.server; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={"PYTHONPATH": src}, check=True
    )
    assert completed.stdout.strip() == "[]"

