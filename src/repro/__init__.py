"""Shift-BNN reproduction: memory-friendly BNN training via reversible LFSRs.

This package reproduces "Shift-BNN: Highly-Efficient Probabilistic Bayesian
Neural Network Training via Memory-Friendly Pattern Retrieving" (MICRO 2021)
as a pure-Python library.  It is organised as:

* :mod:`repro.core` -- the paper's contribution: reversible LFSR-based
  Gaussian sampling (generate epsilons forward, retrieve them backward,
  nothing stored in between);
* :mod:`repro.nn` / :mod:`repro.bnn` -- a NumPy deep-learning substrate and
  Bayes-by-Backprop training on top of it, with interchangeable
  epsilon-management policies (stored vs regenerated);
* :mod:`repro.models`, :mod:`repro.datasets` -- the five evaluation models and
  synthetic stand-ins for their datasets;
* :mod:`repro.accel` -- an analytic accelerator simulator (mappings, traffic,
  energy, latency, FPGA resources, a GPU roofline reference);
* :mod:`repro.serve` -- an asynchronous micro-batching serving front-end that
  pools prediction requests into ``(S, batch)`` tiles for the batched engine;
* :mod:`repro.distrib` -- a data-parallel distributed training engine that
  shards each training step across an elastic pool of worker processes (2-D:
  Monte-Carlo samples x minibatch row blocks), ships step state as
  content-fingerprinted deltas, and survives worker joins, leaves and
  crashes with deterministic fault tolerance -- bit-identical to
  single-process runs throughout;
* :mod:`repro.experiments` -- one module per paper table / figure,
  regenerating the evaluation;
* :mod:`repro.analysis` -- metric and table helpers.

Quick start::

    from repro.models import get_model
    from repro.datasets import synthetic_mnist, BatchLoader
    from repro.bnn import ShiftBNNTrainer, TrainerConfig

    spec = get_model("B-MLP", reduced=True)
    train, test = synthetic_mnist(512, 128, image_size=14)
    trainer = ShiftBNNTrainer(spec.build_bayesian(seed=0), TrainerConfig(n_samples=2))
    trainer.fit(BatchLoader(train, 64, flatten=True).batches(), epochs=5)
"""

import importlib

__version__ = "1.1.0"

__all__ = [
    "core",
    "nn",
    "bnn",
    "models",
    "datasets",
    "accel",
    "analysis",
    "experiments",
    "serve",
    "distrib",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: a subpackage loads on first attribute access, so importing one
    # plane (``repro.serve``) never drags in another (``repro.distrib``)
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
