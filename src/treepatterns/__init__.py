"""Exact and Monte Carlo statistics of rooted attachment patterns in
uniform random labelled trees."""

from .errors import (
    CapExceededError,
    DisconnectedError,
    DomainTooSmallError,
    DuplicateEdgeError,
    DuplicateVerticesError,
    FormatError,
    IndexOutOfRangeError,
    SampleCountError,
    SamplerRangeError,
    SelfLoopError,
    TooSmallError,
    TreePatternError,
    VertexOutOfRangeError,
    WrongEdgeCountError,
)
from .isomorphism import (
    CanonicalForm,
    RootedPattern,
    ahu_code,
    aut_rooted,
    aut_unrooted,
    canonical_form_rooted,
    labelled_rooted_count,
    pattern_from_text,
    pattern_to_text,
    rooted_isomorphic,
)
from .moments import (
    MomentReport,
    PairRelation,
    asymptotic_slope,
    chebyshev_zero_bound,
    mean_pattern_count,
    moment_report,
    occurrence_probability,
    pair_occurrence_probability,
    second_moment_pattern_count,
    variance_pattern_count,
)
from .montecarlo import (
    ConvergenceRow,
    McEstimate,
    RandomStream,
    convergence_csv,
    convergence_experiment,
    estimate_pattern_stats,
    mix64,
    sample_tree,
    stream_for,
)
from .oracle import (
    DEFAULT_CAP,
    ExactDistribution,
    FormulaCheck,
    HARD_CAP,
    LabelledCountReport,
    MomentVerification,
    SHAPE_CAP,
    enumerate_trees,
    exact_pattern_distribution,
    exact_pattern_distributions,
    iter_trees,
    verify_labelled_count,
    verify_moments,
)
from .patterns import (
    PatternOccurrence,
    cherry,
    count_patterns,
    find_patterns,
    is_pattern,
    path_pattern_end,
    path_pattern_mid,
    pattern_from_name,
    rooted_edge,
    star_pattern,
)
from .trees import (
    Center,
    PruferSequence,
    RootedTree,
    Tree,
    build_tree,
    prufer_decode,
    prufer_encode,
    prufer_from_text,
    prufer_to_text,
    rootify,
    tree_center,
    tree_from_text,
    tree_to_text,
)

__version__ = "0.1.0"
