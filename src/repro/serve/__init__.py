"""Asynchronous micro-batching serving front-end over the batched MC engine.

The paper's SPU pipeline is fundamentally a throughput machine; this package
is the software analogue for inference traffic.  Individual prediction
requests are pooled into ``(S, batch)`` tiles
(:class:`~repro.serve.microbatcher.MicroBatcher`), executed through the
batched Monte-Carlo engine with the per-config sampled-weight sweep cached
and replayed (:class:`~repro.serve.executor.TileExecutor`), and answered
through futures by the :class:`~repro.serve.server.PredictionServer` --
bit-identically to a standalone ``mc_predict`` call per request, for any
pooling.

Quick start::

    from repro.models import ReplicaSpec, get_model
    from repro.serve import PredictionServer, SamplingConfig

    spec = get_model("B-MLP", reduced=True)
    replica = ReplicaSpec.capture(spec, trained_model)
    with PredictionServer(replica) as server:
        future = server.submit(x_batch, SamplingConfig(n_samples=8))
        result = future.result()          # a PredictiveResult
        print(result.predictions, result.entropy)
        print(server.stats())
"""

import importlib

from .admission import (
    AdmissionConfig,
    AdmissionController,
    RateLimitedError,
    TierPolicy,
    TokenBucket,
)
from .executor import (
    EpsilonCache,
    MultiVersionExecutor,
    PrecomputedWeightSampler,
    SamplingConfig,
    TileExecutor,
)
from .gateway import GatewayConfig, ServingGateway
from .microbatcher import MicroBatcher, PendingItem, QueueClosed, QueueFull
from .registry import (
    DEFAULT_VERSION,
    Deployment,
    ModelRegistry,
    ModelVersion,
    RegistryPersistenceError,
    RollbackUnavailableError,
    UnknownVersionError,
    VersionConflictError,
)
from .server import PredictionServer, ServerClosed, ServerConfig
from .stats import ServerStats, StatsSnapshot

__all__ = [
    "SamplingConfig",
    "EpsilonCache",
    "PrecomputedWeightSampler",
    "TileExecutor",
    "MultiVersionExecutor",
    "MicroBatcher",
    "PendingItem",
    "QueueClosed",
    "QueueFull",
    "PredictionServer",
    "ServerConfig",
    "ServerClosed",
    "ServerStats",
    "StatsSnapshot",
    "ModelRegistry",
    "ModelVersion",
    "Deployment",
    "DEFAULT_VERSION",
    "UnknownVersionError",
    "VersionConflictError",
    "RollbackUnavailableError",
    "RegistryPersistenceError",
    "ServingGateway",
    "GatewayConfig",
    "AdmissionConfig",
    "AdmissionController",
    "TierPolicy",
    "TokenBucket",
    "RateLimitedError",
    "GatewayClient",
    "GatewayError",
    "GatewayShedError",
]

#: the SDK names resolve on first use: importing ``.client`` eagerly would put
#: it in ``sys.modules`` before ``python -m repro.serve.client`` executes it
_CLIENT_NAMES = frozenset({"GatewayClient", "GatewayError", "GatewayShedError"})


def __getattr__(name: str):
    if name in _CLIENT_NAMES:
        return getattr(importlib.import_module(".client", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
