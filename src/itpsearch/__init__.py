"""Sorted-list searching via interpolation, truncation and projection.

The core strategy interpolates a probe from the bracket values, nudges it
toward the midpoint, then projects it into the interval that keeps the
worst case at ceil(log2 n) queries (strict), at a chosen budget above it
(relaxed), or within a per-iteration halving guarantee (local).
"""

from .bench import TrialStats, run_trials, sweep_kappa, sweep_n, write_csv
from .datasets import Dataset, generate, load_numeric, load_text
from .distributions import (
    Exponential,
    Gaussian,
    Step,
    Triangular,
    Uniform,
    sample_list,
    sample_target,
    trial_rng,
)
from .keycodec import MAX_DIGITS, encode_base27, encode_lines, normalize
from .oracle import linear_scan, minimax_depth, strategy_worst_depth
from .search import (
    DEFAULT_CAP,
    DEFAULT_KAPPA1,
    DEFAULT_KAPPA2,
    DEFAULT_NMAX_EXTRA,
    Local,
    Relaxed,
    SearchConfig,
    SearchOutcome,
    SortedList,
    Strategy,
    Strict,
    minmax_bound,
    search,
    search_many,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DEFAULT_CAP",
    "DEFAULT_KAPPA1",
    "DEFAULT_KAPPA2",
    "DEFAULT_NMAX_EXTRA",
    "Exponential",
    "Gaussian",
    "Local",
    "MAX_DIGITS",
    "Relaxed",
    "SearchConfig",
    "SearchOutcome",
    "SortedList",
    "Step",
    "Strategy",
    "Strict",
    "TrialStats",
    "Triangular",
    "Uniform",
    "encode_base27",
    "encode_lines",
    "generate",
    "linear_scan",
    "load_numeric",
    "load_text",
    "minimax_depth",
    "minmax_bound",
    "normalize",
    "run_trials",
    "sample_list",
    "sample_target",
    "search",
    "search_many",
    "strategy_worst_depth",
    "sweep_kappa",
    "sweep_n",
    "trial_rng",
    "write_csv",
    "__version__",
]
