"""World enumeration, exact counting, and limit analysis for random worlds."""

from .cache import (
    OVERSIZED,
    CacheInfo,
    CacheKey,
    ClassDecomposition,
    CompiledProgramCache,
    OversizedSentinel,
    QueryMemoTable,
    WorldCountCache,
    query_fingerprint,
    tolerance_fingerprint,
    vocabulary_fingerprint,
)
from .compile import CompiledQuery, compile_query
from .counting import (
    AUTO_PROGRAM,
    BruteForceCounter,
    CountResult,
    InconsistentKnowledgeBase,
    UnaryWorldCounter,
    counter_for_work_unit,
    make_counter,
    shard_bounds,
    weighted_shard_bounds,
)
from .parallel import (
    BACKENDS,
    CountingExecutor,
    PartialCount,
    PartialDecomposition,
    ProcessExecutor,
    SerialExecutor,
    WorkUnit,
    compute_shard,
    executor_scope,
    make_executor,
    merge_counts,
    merge_partials,
)
from .degrees import (
    CountingCurve,
    CountingReport,
    counting_curve,
    degree_of_belief_by_counting,
    probability_at,
)
from .enumeration import (
    DEFAULT_LIMIT,
    EnumerationTooLarge,
    enumerate_worlds,
    world_space_size,
)
from .limits import (
    DoubleLimitEstimate,
    SequenceEstimate,
    estimate_double_limit,
    estimate_sequence_limit,
    richardson_extrapolate,
)
from .unary import (
    AtomTable,
    ConstantPlacement,
    StructureEvaluator,
    UnaryStructure,
    UnsupportedFormula,
    compositions,
    enumerate_placements,
    enumerate_structures,
    set_partitions,
    structure_satisfies,
)

__all__ = [name for name in dir() if not name.startswith("_")]
