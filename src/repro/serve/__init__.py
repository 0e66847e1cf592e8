"""Asynchronous micro-batching serving front-end over the batched MC engine.

The paper's SPU pipeline is fundamentally a throughput machine; this package
is the software analogue for inference traffic.  Individual prediction
requests are pooled into ``(S, batch)`` tiles
(:class:`~repro.serve.microbatcher.MicroBatcher`), executed through the
batched Monte-Carlo engine with the per-config sampled-weight sweep cached
and replayed (:class:`~repro.serve.executor.TileExecutor`), optionally sharded
across model-replica worker processes
(:class:`~repro.serve.worker.WorkerPool`), and answered through futures by
the :class:`~repro.serve.server.PredictionServer` -- bit-identically to a
standalone ``mc_predict`` call per request, for any pooling and any worker
count.

Quick start::

    from repro.models import ReplicaSpec, get_model
    from repro.serve import PredictionServer, SamplingConfig, ServerConfig

    spec = get_model("B-MLP", reduced=True)
    replica = ReplicaSpec.capture(spec, trained_model)
    with PredictionServer(replica, ServerConfig(n_workers=2)) as server:
        future = server.submit(x_batch, SamplingConfig(n_samples=8))
        result = future.result()          # a PredictiveResult
        print(result.predictions, result.entropy)
        print(server.stats())
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    RateLimitedError,
    TierPolicy,
    TokenBucket,
)
from .client import GatewayClient, GatewayError, GatewayShedError
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
from .worker import TileExecutionError, WorkerCrashError, WorkerPool

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
    "WorkerPool",
    "WorkerCrashError",
    "TileExecutionError",
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
