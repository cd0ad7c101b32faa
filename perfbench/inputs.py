"""The inputs of the workloads, drawn from the workload seed.

The same seed gives the same knowledge bases, the same calls in the same
order and the same cold operations.  The program under test receives only
these generated inputs (KB sentence text, query text, engine options).

Two seeds do the same work in a different order.  The KB statistics, the
call mix and the cold grid are fixed because they set the cost of the
work: a maxent answer costs 87-153 ms for the same taxonomy query across
corpus seeds, so a drawn mix would make the seed, not the program, the
largest source of spread between runs.  The seed draws:

* ``serve_replay`` and ``serve_hot``: the order of the calls, which streams
  carry a malformed row and where, and the tenants' request ids (and, for
  ``serve_hot``, the lottery KBs' constants, which cost nothing);
* ``cold_answers``: the order of the operations.

The serve traces follow the traffic model of experiment E28
(``repro.traffic.synthesize_trace``): corpus KBs with zipf popularity,
single / batch / stream calls in E28's 6/2/2 mix, batch and stream lengths
2-4 and one malformed row in 15% of streams, with E28's engine options on
every open.  Where E28 draws each call, these traces apportion every share
exactly, and they pin each family's knobs (E28 draws them, and a drawn
``branching=4`` taxonomy costs ten times a ``branching=2`` one).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.traffic.synth import MALFORMED_QUERY
from repro.workloads import corpus

# E28's engine options, stamped on every open of the serve workloads.
E28_ENGINE: Dict[str, list] = {"domain_sizes": [6, 8]}
# synthesize_trace's defaults: popularity skew, verb mix (6/2/2), batch
# lengths (2..batch_size=4), share of streams carrying a malformed row,
# tenants.
ZIPF = 1.1
VERB_BLOCK = ("query",) * 3 + ("query_batch",) + ("stream",)
LENGTH_BLOCK = (2, 3, 4)
MALFORMED_BLOCK = (True,) * 3 + (False,) * 17
TENANTS = 4


@dataclass(frozen=True)
class Call:
    """One HTTP call of a serve round: a verb, a KB and its query texts."""

    kind: str  # "query", "query_batch" or "stream"
    kb: int  # index into ServeWorkload.scenarios
    queries: Tuple[str, ...]  # MALFORMED_QUERY where a malformed row is injected
    request_ids: Tuple[str, ...]


@dataclass(frozen=True)
class ServeWorkload:
    """A serve workload: its KBs, engine options and one round of calls."""

    engine: Dict[str, list]
    scenarios: Tuple[corpus.Scenario, ...]
    calls: Tuple[Call, ...]
    tail_percentile: int

    @property
    def requests(self) -> int:
        return sum(len(call.queries) for call in self.calls)

    def pairs(self) -> List[Tuple[int, str]]:
        """Every distinct (KB index, query) pair the round asks, in first-use order."""
        seen: Dict[Tuple[int, str], None] = {}
        for call in self.calls:
            for query in call.queries:
                if query != MALFORMED_QUERY:
                    seen.setdefault((call.kb, query), None)
        return list(seen)


@dataclass(frozen=True)
class ColdOp:
    """One cold operation: open a session from sentence text, ask one query."""

    cell: str  # "family[knobs]@corpus-seed", the grid cell the op belongs to
    sentences: Tuple[str, ...]
    query: str
    expected: Optional[corpus.Expectation]
    negation_of: Optional[str]  # the positive query when this op asks its negation
    known_fault: Optional[str]  # the named fault this op shows today, if any


@dataclass(frozen=True)
class ColdWorkload:
    """The cold grid's operations, in the order one round asks them."""

    ops: Tuple[ColdOp, ...]
    tail_percentile: int


def _blocks(rng: random.Random, block: Sequence, count: int) -> List:
    """``count`` items from back-to-back shuffled copies of ``block``.

    Every whole block contributes each item exactly once, so the shares of
    ``block`` hold exactly up to the last partial block, whatever the seed.
    """
    items: List = []
    while len(items) < count:
        copy = list(block)
        rng.shuffle(copy)
        items.extend(copy)
    return items[:count]


def _apportion(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder split of ``total`` in proportion to ``weights``."""
    scale = total / sum(weights)
    counts = [int(weight * scale) for weight in weights]
    remainders = sorted(
        range(len(weights)), key=lambda index: weights[index] * scale - counts[index], reverse=True
    )
    for index in remainders[: total - sum(counts)]:
        counts[index] += 1
    return counts


def _serve_round(
    rng: random.Random,
    scenarios: Sequence[corpus.Scenario],
    families: Sequence[str],
    calls: int,
) -> ServeWorkload:
    """One round of ``calls`` calls over ``scenarios`` (grouped by family)."""
    by_family = [
        [index for index, scenario in enumerate(scenarios) if scenario.family == family]
        for family in families
    ]
    # Zipf popularity over the family ranks, in whole verb blocks.  Each
    # family gets its exact share of verbs, batch and stream lengths (2, 3,
    # 4 in turn) and, up to one partial block, malformed rows; its KBs take
    # turns within each (verb, length) group.
    zipf = [1.0 / (rank + 1) ** ZIPF for rank in range(len(families))]
    per_family = _apportion(zipf, calls // len(VERB_BLOCK))
    planned: List[Tuple[int, str, int, bool]] = []
    for members, blocks in zip(by_family, per_family):
        verbs = _blocks(rng, VERB_BLOCK, blocks * len(VERB_BLOCK))
        lengths = {verb: itertools.cycle(LENGTH_BLOCK) for verb in ("query_batch", "stream")}
        malformed = iter(_blocks(rng, MALFORMED_BLOCK, verbs.count("stream")))
        shapes = sorted(
            (verb, 1 if verb == "query" else next(lengths[verb]), verb == "stream" and next(malformed))
            for verb in verbs
        )
        planned.extend((members[turn % len(members)], *shape) for turn, shape in enumerate(shapes))
    # Each KB's queries are asked round and round in corpus order, singles
    # and multi-query calls on separate rounds, in the planned order above:
    # every query of a KB gets its share of the single calls, and a call of
    # three or more queries holds every query of its KB.  So two seeds ask
    # the same calls; the seed draws their order, which streams carry a
    # malformed row and where, and the tenants' request ids.
    cycles: Dict[Tuple[int, bool], Iterator[str]] = {}
    drafted: List[Tuple[int, str, List[str]]] = []
    for kb, verb, length, bad in planned:
        key = (kb, verb == "query")
        if key not in cycles:
            cycles[key] = itertools.cycle(scenarios[kb].queries)
        queries = [next(cycles[key]) for _ in range(length)]
        if bad:
            queries[rng.randrange(length)] = MALFORMED_QUERY
        drafted.append((kb, verb, queries))
    rng.shuffle(drafted)

    issued = [0] * TENANTS
    round_calls: List[Call] = []
    for position, (kb, verb, queries) in enumerate(drafted):
        tenant = position % TENANTS
        ids = []
        for _ in queries:
            issued[tenant] += 1
            ids.append(f"tenant{tenant}-{issued[tenant]}")
        round_calls.append(Call(verb, kb, tuple(queries), tuple(ids)))
    return ServeWorkload(dict(E28_ENGINE), tuple(scenarios), tuple(round_calls), tail_percentile(len(round_calls)))


# -- serve_replay ------------------------------------------------------------

# E28 samples five KBs, which cycles the first five corpus families in this
# order; the knobs are the family defaults, except competing_grid at three
# classes: at two classes it adds the asserted-membership query, whose cold
# counting costs ~3.4 s per KB at E28's domain sizes (run length only --
# that query is still asked, cold, in cold_answers).
REPLAY_FAMILIES = ("deep_taxonomy", "branching_taxonomy", "diagnosis_network", "lottery", "competing_grid")
REPLAY_KNOBS = {
    "deep_taxonomy": {"depth": 4},
    "branching_taxonomy": {"branching": 2},
    "diagnosis_network": {"diseases": 2, "symptoms": 2},
    "lottery": {"tickets": 4},
    "competing_grid": {"classes": 3},
}
REPLAY_KBS_PER_FAMILY = 3
REPLAY_CORPUS_SEED = 28  # E28's seed; the KB set is fixed, the trace is drawn
REPLAY_CALLS = 100  # one round: p90 keeps 10 calls beyond it


def serve_replay(seed: int, calls: int = REPLAY_CALLS) -> ServeWorkload:
    rng = random.Random(f"perfbench:serve_replay:{seed}")
    scenarios = corpus.sample(
        len(REPLAY_FAMILIES) * REPLAY_KBS_PER_FAMILY,
        families=REPLAY_FAMILIES,
        seed=REPLAY_CORPUS_SEED,
        knob_overrides=REPLAY_KNOBS,
    )
    return _serve_round(rng, scenarios, REPLAY_FAMILIES, calls)


# -- serve_hot ---------------------------------------------------------------

# Lottery KBs only: after the warm-up every answer is a counting-memo hit,
# so HTTP framing, the codec and session bookkeeping are what is left.
HOT_TICKETS = (2, 3, 4, 5, 6)
HOT_CALLS = 100  # one round: p90 keeps 10 calls beyond it


def serve_hot(seed: int, calls: int = HOT_CALLS) -> ServeWorkload:
    rng = random.Random(f"perfbench:serve_hot:{seed}")
    scenarios = [
        corpus.build("lottery", 1000 * seed + index, tickets=tickets)
        for index, tickets in enumerate(HOT_TICKETS)
    ]
    return _serve_round(rng, scenarios, ("lottery",), calls)


# -- cold_answers ------------------------------------------------------------

# The grid: (family, knobs, corpus seed, {query: named fault it shows}).
# It is fixed: the three faults fail on these inputs every time, and drawn
# statistics would move the percentiles more than the program does (the
# same 2x3 diagnosis query costs 0.6 s at corpus seed 0 and 9 s at seed 14).
# Every cell is at corpus seed 0 except the fault cells, which sit at the
# seeds where their fault shows.  The many taxonomy and diagnosis shapes
# give the latencies around the median and the tail close neighbours.
# Caps, for run length and steadiness only: near_inconsistent at one pair
# (two pairs cost ~1 s per maxent answer, three pairs 16-19 s); no 2x3
# diagnosis cell, whose five maxent answers (0.6-0.8 s wall, twice that in
# CPU on OpenBLAS's second thread) would sit at the tail percentile and
# move it by a third with the host's load -- branching_taxonomy 3 still
# shows that spin.
COLD_GRID: Tuple[Tuple[str, Dict[str, int], int, Dict[str, str]], ...] = (
    ("deep_taxonomy", {"depth": 2}, 0, {}),
    ("deep_taxonomy", {"depth": 3}, 0, {}),
    ("deep_taxonomy", {"depth": 4}, 0, {}),
    ("deep_taxonomy", {"depth": 5}, 0, {}),
    ("deep_taxonomy", {"depth": 6}, 0, {}),
    ("branching_taxonomy", {"branching": 2}, 0, {}),
    ("branching_taxonomy", {"branching": 3}, 0, {}),
    ("diagnosis_network", {"diseases": 1, "symptoms": 2}, 0, {}),
    ("diagnosis_network", {"diseases": 1, "symptoms": 3}, 0, {}),
    ("diagnosis_network", {"diseases": 2, "symptoms": 1}, 0, {}),
    ("diagnosis_network", {"diseases": 2, "symptoms": 2}, 0, {}),
    ("diagnosis_network", {"diseases": 3, "symptoms": 1}, 0, {}),
    ("lottery", {"tickets": 4}, 0, {}),
    ("competing_grid", {"classes": 2}, 11, {"Class0": "asserted-fact-undefined", "not P": "negation-unanswerable"}),
    ("competing_grid", {"classes": 3}, 0, {"not P": "negation-unanswerable"}),
    ("near_inconsistent", {"pairs": 1, "band": 64}, 0, {"not P0": "complement-violated"}),
)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` samples
    beyond it (the median when there are too few samples for a tail)."""
    return max((p for p in range(50, 100) if count - -(-count * p // 100) >= 10), default=50)


def negation(query: str) -> str:
    return query[len("not "):] if query.startswith("not ") else f"not {query}"


def _predicate(query: str) -> str:
    return query.split("(", 1)[0]


def cold_answers(seed: int, grid=COLD_GRID) -> ColdWorkload:
    ops: List[ColdOp] = []
    for family, knobs, corpus_seed, faults in grid:
        scenario = corpus.build(family, corpus_seed, **knobs)
        sentences = tuple(repr(sentence) for sentence in scenario.knowledge_base.sentences)
        knob_text = ",".join(f"{key}={value}" for key, value in sorted(knobs.items()))
        cell = f"{family}[{knob_text}]@{corpus_seed}"
        for query in scenario.queries:
            if query.startswith("not "):
                continue
            for asked, positive in ((query, None), (negation(query), query)):
                label = ("not " if positive else "") + _predicate(query)
                ops.append(
                    ColdOp(
                        cell=cell,
                        sentences=sentences,
                        query=asked,
                        expected=scenario.expectation_for(asked),
                        negation_of=positive,
                        known_fault=faults.get(label),
                    )
                )
    rng = random.Random(f"perfbench:cold_answers:{seed}")
    rng.shuffle(ops)
    return ColdWorkload(tuple(ops), tail_percentile(len(ops)))
