"""Metamorphic probability-law suite for the exact counting subsystem.

The random-worlds method's own identities give a free oracle: whatever the
knowledge base and query, the exact ``Pr^tau_N`` measure must satisfy, at
every *defined* grid point,

* complement:      ``Pr(phi) + Pr(not phi) == 1``,
* entailment monotonicity: ``Pr(phi and psi) <= min(Pr(phi), Pr(psi))``,
* tautology:       ``Pr(phi or not phi) == 1``,
* contradiction:   ``Pr(phi and not phi) == 0``,

with exact :class:`~fractions.Fraction` arithmetic — no tolerance for float
drift.  Hypothesis draws a benchmark knowledge base and random queries over
its vocabulary, and the whole suite runs identically with the query memo on
and off and on both counting backends (``--backend processes
--backend-workers 2`` pins it to real multi-process fan-out in CI).  Concurrent
legs run the law, memo and compiled-twin counts at once from a thread pool
against one shared counter, as the HTTP server's handler threads do to a
session.

Every test here carries the ``metamorphic`` pytest marker, so
``pytest -m metamorphic`` selects exactly this oracle suite.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import pytest
from conftest import exhaustive_counting_domain, repeated_for_threads, run_concurrently
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_worlds_cache import BENCHMARK_KBS

from repro.logic.parser import parse
from repro.logic.syntax import Atom, Const, Equals, Exists, Forall, Not, Var, conj, disj
from repro.logic.tolerance import ToleranceVector
from repro.logic.vocabulary import Vocabulary
from repro.worlds.cache import WorldCountCache
from repro.worlds.counting import make_counter

pytestmark = pytest.mark.metamorphic

TAU = ToleranceVector.uniform(0.1)

# Tighter budgets than the equality suites: hypothesis runs its full default
# example budget against every configuration, so each individual count must
# stay in the low milliseconds.  (The budget bounds the *enumeration*, paid
# once per KB and cached; per-example evaluation walks only the KB-satisfying
# classes, which are far fewer.)
UNARY_CLASS_BUDGET = 5_000
BRUTE_WORLD_BUDGET = 3_000


def _metamorphic_domain_size(vocabulary: Vocabulary) -> int:
    domain_size = exhaustive_counting_domain(
        vocabulary, unary_budget=UNARY_CLASS_BUDGET, brute_budget=BRUTE_WORLD_BUDGET
    )
    assert domain_size is not None, f"no feasible domain size for {vocabulary!r}"
    return domain_size


def _atom_pool(vocabulary: Vocabulary) -> list:
    """Ground and singly-quantified atoms over the KB's own vocabulary."""
    constants = tuple(Const(name) for name in tuple(vocabulary.constants)[:3])
    atoms = []
    for name, arity in sorted(vocabulary.predicates.items()):
        for args in itertools.product(constants, repeat=arity):
            atoms.append(Atom(name, tuple(args)))
            if len(atoms) >= 10:
                break
        if arity == 1:
            atoms.append(Exists("x", Atom(name, (Var("x"),))))
            atoms.append(Forall("x", Atom(name, (Var("x"),))))
    # Equality literals keep the pool non-empty for predicate-free KBs
    # (lifschitz_names) and add a second kind of ground atom elsewhere.
    for left, right in itertools.combinations(constants, 2):
        atoms.append(Equals(left, right))
    return atoms[:16]


def _query_strategy(vocabulary: Vocabulary):
    atoms = _atom_pool(vocabulary)
    base = st.sampled_from(atoms)
    return st.recursive(
        base,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda pair: conj(*pair)),
            st.tuples(children, children).map(lambda pair: disj(*pair)),
        ),
        max_leaves=4,
    )


# One shared counter per (leg, memo, KB): the decomposition is enumerated
# once and every hypothesis example after that only evaluates queries — which
# is also exactly the warm path the memo and the evaluation shards cover.
_CONTEXTS: dict = {}


def _context(leg: str, memo: bool, entry, executor):
    name, factory, query_text = entry
    key = (leg, memo, name)
    found = _CONTEXTS.get(key)
    if found is None:
        kb = factory()
        vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([parse(query_text)]))
        domain_size = _metamorphic_domain_size(vocabulary)
        cache = WorldCountCache(memo=memo)
        counter = make_counter(
            vocabulary,
            cache=cache,
            executor=executor if executor.dispatches_shards else None,
        )
        # A twin with compilation off sharing the *same* cache: compiled and
        # interpreted evaluation deliberately share decompositions and memo
        # accounting (the compile flag is not part of the cache key), so the
        # differential leg also pins that the two forms can serve each
        # other's rows without conflict.
        interpreted = make_counter(vocabulary, cache=cache, compile_queries=False)
        found = (kb.formula, domain_size, counter, interpreted)
        _CONTEXTS[key] = found
    return found


def _law_queries(phi, psi) -> list:
    return [phi, Not(phi), psi, conj(phi, psi), disj(phi, Not(phi)), conj(phi, Not(phi))]


def _assert_laws(results) -> None:
    """The probability laws on the six counts of :func:`_law_queries`."""
    r_phi, r_not_phi, r_psi, r_and, r_taut, r_contra = results
    assert (
        r_phi.satisfying_kb
        == r_not_phi.satisfying_kb
        == r_psi.satisfying_kb
        == r_and.satisfying_kb
    )
    if not r_phi.is_defined:
        return  # no world of this size satisfies the KB: undefined point
    for result in results:
        assert isinstance(result.probability, Fraction)
    assert r_phi.probability + r_not_phi.probability == Fraction(1)
    assert r_and.probability <= min(r_phi.probability, r_psi.probability)
    assert r_taut.probability == Fraction(1)
    assert r_contra.probability == Fraction(0)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@given(data=st.data())
@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_probability_laws_hold_on_every_kb(counting_backend, memo, executor_for, data):
    entry = data.draw(st.sampled_from(BENCHMARK_KBS), label="kb")
    kb_formula, domain_size, counter, _ = _context(
        counting_backend, memo, entry, executor_for(counting_backend)
    )
    strategy = _query_strategy(counter.vocabulary)
    phi = data.draw(strategy, label="phi")
    psi = data.draw(strategy, label="psi")

    for n in {max(1, domain_size - 1), domain_size}:
        _assert_laws([counter.count(query, kb_formula, n, TAU) for query in _law_queries(phi, psi)])


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@given(data=st.data())
@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_probability_laws_hold_under_concurrent_counts(memo, executor_for, data):
    """The same law counts, all at once from a thread pool on one shared counter.

    Every count of both domain sizes is submitted together (each repeated so
    every thread has work), so the cache's and memo's in-flight protocols
    see concurrent misses and hits on the same keys.
    """
    entry = data.draw(st.sampled_from(BENCHMARK_KBS), label="kb")
    kb_formula, domain_size, counter, _ = _context(
        "concurrent", memo, entry, executor_for("serial")
    )
    strategy = _query_strategy(counter.vocabulary)
    phi = data.draw(strategy, label="phi")
    psi = data.draw(strategy, label="psi")
    sizes = sorted({max(1, domain_size - 1), domain_size})
    queries = _law_queries(phi, psi)
    jobs = repeated_for_threads([(n, query) for n in sizes for query in queries])
    results = run_concurrently(
        [functools.partial(counter.count, query, kb_formula, n, TAU) for n, query in jobs]
    )

    by_job = {}
    for job, result in zip(jobs, results):
        assert by_job.setdefault(job, result) == result  # repeats agree exactly
    for n in sizes:
        _assert_laws([by_job[(n, query)] for query in queries])


# --------------------------------------------------------------------------
# Corpus fuzz: the same probability-law oracle over *generated* KBs.
#
# Two sweeps share the oracle body.  The parametrized sweep runs the laws on
# exactly ``--corpus-examples`` pairwise-distinct scenarios (a deterministic
# sample, so CI can demand a concrete KB count); the hypothesis sweep draws
# (family, seed, knobs) freely, covering knob corners and seeds the sample
# never visits.  Both carry the ``corpus`` marker on top of ``metamorphic``,
# so ``-m "metamorphic and not corpus"`` keeps the benchmark-KB suite intact
# while CI sizes the corpus leg separately.
# --------------------------------------------------------------------------

# Counter contexts per scenario fingerprint: the decomposition is enumerated
# once per generated KB, later law examples only evaluate queries.
_CORPUS_CONTEXTS: dict = {}


def _corpus_context(scenario):
    found = _CORPUS_CONTEXTS.get(scenario.fingerprint)
    if found is None:
        kb = scenario.knowledge_base
        domain_size = _metamorphic_domain_size(kb.vocabulary)
        counter = make_counter(kb.vocabulary, cache=WorldCountCache(memo=True))
        found = (kb.formula, domain_size, counter)
        _CORPUS_CONTEXTS[scenario.fingerprint] = found
    return found


def _assert_probability_laws(scenario, data):
    kb_formula, domain_size, counter = _corpus_context(scenario)
    strategy = _query_strategy(counter.vocabulary)
    phi = data.draw(strategy, label="phi")
    psi = data.draw(strategy, label="psi")
    for n in {max(1, domain_size - 1), domain_size}:
        _assert_laws([counter.count(query, kb_formula, n, TAU) for query in _law_queries(phi, psi)])


@pytest.mark.corpus
@given(data=st.data())
@settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_probability_laws_hold_on_corpus_kbs(corpus_scenario, data):
    """The probability laws hold on every sampled corpus KB.

    ``corpus_scenario`` parametrizes over exactly ``--corpus-examples``
    distinct generated KBs; hypothesis then fuzzes queries per KB.
    """
    _assert_probability_laws(corpus_scenario, data)


@st.composite
def _corpus_coordinates(draw):
    from repro.workloads.corpus import family, family_names

    chosen = family(draw(st.sampled_from(family_names())))
    knobs = {knob.name: draw(st.integers(knob.low, knob.high)) for knob in chosen.knobs}
    seed = draw(st.integers(min_value=0, max_value=9_999))
    return chosen.name, seed, knobs


@pytest.mark.corpus
@given(coordinates=_corpus_coordinates(), data=st.data())
@settings(
    deadline=None,
    max_examples=75,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_probability_laws_hold_on_drawn_scenarios(coordinates, data):
    """Free (family, seed, knobs) draws: knob corners the sample never visits."""
    from repro.workloads.corpus import build

    name, seed, knobs = coordinates
    scenario = build(name, seed, **knobs)
    # A few knob corners (e.g. depth-6 taxonomies) are engine-servable but
    # outside every exhaustive-enumeration budget; this oracle is exhaustive.
    assume(exhaustive_counting_domain(scenario.knowledge_base.vocabulary) is not None)
    _assert_probability_laws(scenario, data)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@given(data=st.data())
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_memo_and_memoless_agree_exactly(counting_backend, memo, executor_for, data):
    """The memoised answer for any drawn query equals a fresh uncached count."""
    entry = data.draw(st.sampled_from(BENCHMARK_KBS), label="kb")
    kb_formula, domain_size, counter, _ = _context(
        counting_backend, memo, entry, executor_for(counting_backend)
    )
    phi = data.draw(_query_strategy(counter.vocabulary), label="phi")
    memoised = counter.count(phi, kb_formula, domain_size, TAU)
    reference = make_counter(counter.vocabulary).count(phi, kb_formula, domain_size, TAU)
    assert memoised == reference


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@given(data=st.data())
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_memo_and_memoless_agree_under_concurrent_counts(memo, executor_for, data):
    """Every racing count of a drawn query equals a fresh uncached count.

    The first counts of a new query race for its memo row (or, memoless,
    evaluate side by side) on the warm shared counter of the concurrent leg.
    """
    entry = data.draw(st.sampled_from(BENCHMARK_KBS), label="kb")
    kb_formula, domain_size, counter, _ = _context(
        "concurrent", memo, entry, executor_for("serial")
    )
    phi = data.draw(_query_strategy(counter.vocabulary), label="phi")
    calls = repeated_for_threads([functools.partial(counter.count, phi, kb_formula, domain_size, TAU)])
    reference = make_counter(counter.vocabulary).count(phi, kb_formula, domain_size, TAU)
    assert run_concurrently(calls) == [reference] * len(calls)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@given(data=st.data())
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_compiled_and_interpreted_agree_exactly(counting_backend, memo, executor_for, data):
    """The compiled kernel answers exactly like the interpreter on any query.

    Three-way differential: the compiled counter, its interpreted twin on the
    *shared* cache (same decomposition, same memo accounting), and a fresh
    cache-less interpreted counter.  The last keeps the comparison honest
    when the shared memo would otherwise hand the twin the compiled row.
    """
    entry = data.draw(st.sampled_from(BENCHMARK_KBS), label="kb")
    kb_formula, domain_size, counter, interpreted = _context(
        counting_backend, memo, entry, executor_for(counting_backend)
    )
    phi = data.draw(_query_strategy(counter.vocabulary), label="phi")
    compiled_result = counter.count(phi, kb_formula, domain_size, TAU)
    twin_result = interpreted.count(phi, kb_formula, domain_size, TAU)
    reference = make_counter(counter.vocabulary, compile_queries=False).count(
        phi, kb_formula, domain_size, TAU
    )
    assert compiled_result == twin_result == reference


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@given(data=st.data())
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_compiled_and_interpreted_agree_under_concurrent_counts(memo, executor_for, data):
    """The compiled counter and its interpreted twin race on the shared cache.

    Half the threads count a drawn query compiled and half interpreted, so
    with the memo on the two forms contend for one memo row; every answer
    must equal a fresh cache-less interpreted count.
    """
    entry = data.draw(st.sampled_from(BENCHMARK_KBS), label="kb")
    kb_formula, domain_size, counter, interpreted = _context(
        "concurrent", memo, entry, executor_for("serial")
    )
    phi = data.draw(_query_strategy(counter.vocabulary), label="phi")
    calls = repeated_for_threads(
        [functools.partial(each.count, phi, kb_formula, domain_size, TAU) for each in (counter, interpreted)]
    )
    reference = make_counter(counter.vocabulary, compile_queries=False).count(
        phi, kb_formula, domain_size, TAU
    )
    assert run_concurrently(calls) == [reference] * len(calls)
