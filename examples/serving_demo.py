"""Serving demo: concurrent clients against the async micro-batching front-end.

This is the production-shaped use of the library:

1. train a reduced Bayesian MLP (seconds on a CPU),
2. capture it as a picklable :class:`~repro.models.ReplicaSpec`,
3. start a :class:`~repro.serve.PredictionServer` that pools incoming
   requests into ``(S, batch)`` tiles for the batched Monte-Carlo engine and
   executes them inline on its dispatcher thread,
4. fire eight concurrent clients at it and read the telemetry
   (throughput, p50/p99 latency, batch occupancy),
5. verify the serving contract: every served answer is bit-identical to a
   standalone ``mc_predict`` call with the same sampling configuration --
   pooling and weight-sweep replay change throughput, never bytes.

Run with::

    python examples/serving_demo.py
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.bnn import ShiftBNNTrainer, TrainerConfig, mc_predict
from repro.datasets import BatchLoader, synthetic_mnist
from repro.models import ReplicaSpec, get_model
from repro.serve import PredictionServer, SamplingConfig, ServerConfig

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 6
ROWS_PER_REQUEST = 16


def main() -> None:
    # 1. a quickly-trained model to serve
    spec = get_model("B-MLP", reduced=True)
    train, test = synthetic_mnist(n_train=512, n_test=256, image_size=14, seed=7)
    trainer = ShiftBNNTrainer(
        spec.build_bayesian(seed=42),
        TrainerConfig(n_samples=4, learning_rate=5e-3, seed=1, grng_stride=64),
    )
    trainer.fit(BatchLoader(train, batch_size=64, flatten=True).batches(), epochs=2)

    # 2. capture the trained parameters as a replica recipe (what the
    #    executor rebuilds -- bit-identical to the trained model)
    replica = ReplicaSpec.capture(spec, trainer.model)

    # 3. the serving front-end: tiles of up to 64 rows, 2 ms flush deadline,
    #    one frozen replica + its cached weight sweeps per loaded version
    config = ServerConfig(max_batch_rows=64, max_wait_ms=2.0)
    sampling = SamplingConfig(n_samples=8, seed=0, grng_stride=64)

    rng = np.random.default_rng(11)
    pool = test.flatten_images()
    request_batches = [
        [
            pool[rng.integers(0, pool.shape[0], size=ROWS_PER_REQUEST)]
            for _ in range(REQUESTS_PER_CLIENT)
        ]
        for _ in range(N_CLIENTS)
    ]

    collected: list[tuple[np.ndarray, np.ndarray]] = []
    collected_lock = threading.Lock()

    with PredictionServer(replica, config) as server:
        # 4. eight concurrent clients, each awaiting its own futures
        def client(index: int) -> None:
            for x in request_batches[index]:
                result = server.submit(x, sampling).result(timeout=120.0)
                with collected_lock:
                    collected.append((x, result.sample_probabilities))

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(N_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        snapshot = server.stats()

    total = N_CLIENTS * REQUESTS_PER_CLIENT
    print(f"\nserved {total} requests ({total * ROWS_PER_REQUEST} rows) "
          f"from {N_CLIENTS} concurrent clients in {elapsed * 1e3:.1f} ms")
    print(f"server telemetry: {snapshot}")
    print("batch-occupancy histogram (requests-per-tile: tiles):",
          snapshot.occupancy_histogram)

    # 5. the serving contract: identical bytes to standalone mc_predict
    x, served_probabilities = collected[0]
    standalone = mc_predict(
        trainer.model, x,
        n_samples=sampling.n_samples, seed=sampling.seed,
        grng_stride=sampling.grng_stride, lfsr_bits=sampling.lfsr_bits,
    )
    exact = np.array_equal(served_probabilities, standalone.sample_probabilities)
    print(f"served == standalone mc_predict (bit-exact): {exact}")
    if not exact:
        raise SystemExit("serving equivalence violated")

    # sequential baseline for context: the same requests, one mc_predict each
    start = time.perf_counter()
    for group in request_batches:
        for x in group:
            mc_predict(
                trainer.model, x,
                n_samples=sampling.n_samples, seed=sampling.seed,
                grng_stride=sampling.grng_stride,
            )
    sequential = time.perf_counter() - start
    print(f"sequential per-request mc_predict baseline: {sequential * 1e3:.1f} ms "
          f"({sequential / elapsed:.1f}x slower than the served run)")


if __name__ == "__main__":
    main()
