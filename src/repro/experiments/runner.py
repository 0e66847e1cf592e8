"""Run every experiment and print its table (the repo's ``run-all`` entry point).

Usage::

    python -m repro.experiments.runner            # analytic experiments only
    python -m repro.experiments.runner --full     # include functional training runs

The analytic experiments (Figs. 2, 3, 10-14, Table 2, DSE) complete in seconds;
the functional ones (Fig. 9, Table 1) train reduced models and take a few
minutes, so they are opt-in here; tier-1 runs them at tiny sizes in
``tests/integration/test_functional_experiments.py``.
"""

from __future__ import annotations

import argparse
from typing import Callable

from .ablations import (
    run_bandwidth_sensitivity_ablation,
    run_grng_quality_ablation,
    run_spu_scaling_ablation,
)
from .base import ExperimentResult
from .dse_mappings import run_dse
from .fig2_bnn_vs_dnn import run_fig2
from .fig3_traffic_breakdown import run_fig3
from .fig9_training_equivalence import run_fig9
from .fig10_energy import run_fig10
from .fig11_speedup import run_fig11
from .fig12_efficiency import run_fig12
from .fig13_scalability import run_fig13
from .fig14_dram_footprint import run_fig14
from .table1_precision import run_table1
from .table2_resources import run_table2

__all__ = ["ANALYTIC_EXPERIMENTS", "FUNCTIONAL_EXPERIMENTS", "run_all", "main"]

#: Fast experiments driven entirely by the analytic simulator.
ANALYTIC_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "table2": run_table2,
    "dse": run_dse,
    "ablation_grng": run_grng_quality_ablation,
    "ablation_spu": run_spu_scaling_ablation,
    "ablation_bandwidth": run_bandwidth_sensitivity_ablation,
}

#: Experiments that train reduced models functionally (minutes, not seconds).
FUNCTIONAL_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig9": lambda: run_fig9().result,
    "table1": run_table1,
}


def run_all(include_functional: bool = False) -> dict[str, ExperimentResult]:
    """Run the selected experiments and return their results keyed by name."""
    experiments = dict(ANALYTIC_EXPERIMENTS)
    if include_functional:
        experiments.update(FUNCTIONAL_EXPERIMENTS)
    return {name: build() for name, build in experiments.items()}


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="also run the functional training experiments (Fig. 9, Table 1)",
    )
    parser.add_argument(
        "--only",
        choices=sorted({**ANALYTIC_EXPERIMENTS, **FUNCTIONAL_EXPERIMENTS}),
        help="run a single experiment by name",
    )
    args = parser.parse_args(argv)
    if args.only:
        registry = {**ANALYTIC_EXPERIMENTS, **FUNCTIONAL_EXPERIMENTS}
        results = {args.only: registry[args.only]()}
    else:
        results = run_all(include_functional=args.full)
    for name, result in results.items():
        print()
        print(f"===== {name} =====")
        print(result.to_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
