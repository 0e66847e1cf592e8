"""Core of the Shift-BNN reproduction: reversible LFSR-based Gaussian sampling.

The classes exported here implement the paper's primary contribution -- the
ability to regenerate every Gaussian random variable used for Bayesian weight
sampling by shifting the generating LFSR backwards, so that nothing has to be
stored between the forward and backward training stages.
"""

from .backend import (
    BackendConformanceError,
    KernelBackendError,
    KernelRegistry,
    UnknownBackendError,
)
from .checkpoint import LfsrSnapshot, StreamBank, StreamPolicy
from .grng import GRNGMode, LfsrGaussianRNG, ReplayError
from .grng_bank import BankedGaussianRNG, GrngBank, LfsrRowView
from .lfsr import (
    MAXIMAL_TAPS,
    FibonacciLFSR,
    LFSRStateError,
    mirrored_taps,
    normalise_taps,
    parity,
    seed_from_index,
)
from .sampler import (
    BatchedWeightSampler,
    SampledWeights,
    SampledWeightsBatch,
    WeightSampler,
)
from .streams import (
    EpsilonStream,
    ReversibleGaussianStream,
    StoredGaussianStream,
    StreamOrderError,
    StreamUsage,
)

__all__ = [
    "BackendConformanceError",
    "KernelBackendError",
    "KernelRegistry",
    "UnknownBackendError",
    "MAXIMAL_TAPS",
    "FibonacciLFSR",
    "LFSRStateError",
    "mirrored_taps",
    "normalise_taps",
    "parity",
    "seed_from_index",
    "GRNGMode",
    "LfsrGaussianRNG",
    "ReplayError",
    "BankedGaussianRNG",
    "GrngBank",
    "LfsrRowView",
    "EpsilonStream",
    "ReversibleGaussianStream",
    "StoredGaussianStream",
    "StreamOrderError",
    "StreamUsage",
    "SampledWeights",
    "SampledWeightsBatch",
    "WeightSampler",
    "BatchedWeightSampler",
    "LfsrSnapshot",
    "StreamBank",
    "StreamPolicy",
]
