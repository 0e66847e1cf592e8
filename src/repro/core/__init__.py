"""Core of the Shift-BNN reproduction: reversible LFSR-based Gaussian sampling.

The classes exported here implement the paper's primary contribution -- the
ability to regenerate every Gaussian random variable used for Bayesian weight
sampling from the generating LFSR itself, so that nothing has to be stored
between the forward and backward training stages.  :class:`GrngBank` is the
one generator: a packed bank of LFSRs, one per Monte-Carlo sample, that
recovers earlier patterns by jumping its registers back and replaying them
forward.  :class:`BatchedWeightSampler` is the one weight sampler: over the
whole bank for the batched pipeline, over a one-row bank
(:meth:`GrngBank.row_bank`) for one sample, under either stream policy.
"""

from .backend import (
    BackendConformanceError,
    KernelBackendError,
    KernelRegistry,
    UnknownBackendError,
)
from .checkpoint import StreamBank, StreamPolicy
from .grng_bank import GrngBank
from .lfsr import MAXIMAL_TAPS, LFSRStateError, normalise_taps, seed_from_index
from .sampler import BatchedWeightSampler, SampledWeightsBatch
from .streams import StreamOrderError, StreamUsage

__all__ = [
    "BackendConformanceError",
    "KernelBackendError",
    "KernelRegistry",
    "UnknownBackendError",
    "MAXIMAL_TAPS",
    "LFSRStateError",
    "normalise_taps",
    "seed_from_index",
    "GrngBank",
    "StreamOrderError",
    "StreamUsage",
    "SampledWeightsBatch",
    "BatchedWeightSampler",
    "StreamBank",
    "StreamPolicy",
]
