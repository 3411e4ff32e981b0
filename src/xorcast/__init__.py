"""Exact minimum, bounds and simulation of XOR-coded multicast to three clients."""

from .policy import (
    distinct_dependent_count,
    greedy_codeword,
    lemma1_construct,
    lemma1_counterexample,
    sufficient_by_counting,
)
from .markov import (
    FineChain,
    MarkovChainSpec,
    TransitionPoly,
    absorption_time_fine,
    build_chain,
    build_fine_chain,
    expected_absorption_time,
)
from .bounds import (
    BoundQuery,
    expected_delta,
    expected_ell,
    mds_expected,
    p_delta,
    retransmission_ratio,
)
from .sim import ExperimentConfig, ExperimentResult, run_experiment, run_trial

__version__ = "0.1.0"

__all__ = [
    "greedy_codeword",
    "sufficient_by_counting",
    "lemma1_construct",
    "lemma1_counterexample",
    "distinct_dependent_count",
    "MarkovChainSpec",
    "TransitionPoly",
    "FineChain",
    "build_chain",
    "build_fine_chain",
    "expected_absorption_time",
    "absorption_time_fine",
    "BoundQuery",
    "p_delta",
    "expected_delta",
    "expected_ell",
    "mds_expected",
    "retransmission_ratio",
    "ExperimentConfig",
    "ExperimentResult",
    "run_trial",
    "run_experiment",
    "__version__",
]
