"""Compare benchmark ledgers written by ``bench/run.py --run-set``.

Two ledgers (parent, change)::

    python3 bench/compare.py parent.json change.json [--layers]

applies every end-to-end metric's direction and bound per (metric, workload):
``ok`` when the change's median is no worse than the parent's by more than
the bound, ``REGRESSION`` when it is, and ``unresolved`` -- never *unchanged*
-- when the run-to-run spread is wider than the bound (unless every run of
the change beats every run of the parent).  Exact counts, input digests and
fingerprints must be identical.  Exit code 1 on any regression or mismatch.

N alternating pairs (``--pairs P1 C1 P2 C2 ...``, ten or more to claim a gain)
additionally reports ``GAIN`` where the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's inter-quartile
distance (the ``choosing-metrics`` rule).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

IDENTITY_KEYS = ("input_digest", "fingerprint_after_oracle")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        ledger = json.load(handle)
    if ledger.get("schema") != 1:
        raise SystemExit(f"{path}: not a schema-1 benchmark ledger")
    return ledger


def check_comparable(a: dict, b: dict) -> None:
    """Timings from different core counts or BLAS builds are not comparable."""
    for key in ("nproc", "blas"):
        if a["machine"][key] != b["machine"][key]:
            raise SystemExit(
                f"refusing to compare: machine.{key} differs "
                f"({a['machine'][key]!r} vs {b['machine'][key]!r})"
            )
    for key in ("seed", "run_seconds"):
        if a[key] != b[key]:
            raise SystemExit(f"refusing to compare: {key} differs ({a[key]} vs {b[key]})")


def spread(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median (IQR with four or more runs)."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if median == 0:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(median)
    return (max(values) - min(values)) / abs(median)


def worsening(parent: float, change: float, better: str) -> float:
    """Share of the parent's value by which the change is worse (negative: better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else 0.0


def judge(parent: dict, change: dict) -> tuple[str, float]:
    """Verdict and signed worsening for one end-to-end metric on one workload."""
    better, bound = parent["better"], parent["bound"]
    a, b = parent["values"], change["values"]
    worse = worsening(statistics.median(a), statistics.median(b), better)
    widest = max((s for s in (spread(a), spread(b)) if s is not None), default=None)
    if widest is not None and widest > bound:
        every_run_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("ok" if every_run_better else "unresolved"), worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def gain(parent: dict, change: dict) -> bool:
    """The nine-tenths-of-pairs + inter-quartile rule over paired runs."""
    a, b, better = parent["values"], change["values"], parent["better"]
    if len(a) != len(b) or len(a) < 4:
        return False
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
    quartiles = statistics.quantiles(a, n=4)
    improvement = -worsening(statistics.median(a), statistics.median(b), better)
    return (
        wins >= 0.9 * len(a)
        and improvement * abs(statistics.median(a)) > quartiles[2] - quartiles[0]
    )


def pool(ledgers: list[dict]) -> dict:
    """One ledger whose per-metric values are the given ledgers' medians."""
    pooled = json.loads(json.dumps(ledgers[0]))
    for name, entry in pooled["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry[section].items():
                cell["values"] = [
                    ledger["workloads"][name][section][metric]["median"] for ledger in ledgers
                ]
                cell["median"] = statistics.median(cell["values"])
        entry["failed"] = sum(ledger["workloads"][name]["failed"] for ledger in ledgers)
    return pooled


def compare(parent: dict, change: dict, paired: bool = False, layers: bool = False) -> int:
    check_comparable(parent, change)
    problems = 0
    metrics = list(next(iter(parent["workloads"].values()))["end_to_end"])
    print(f"{'workload':<22s}" + "".join(f"{metric:>22s}" for metric in metrics))
    for name, before in parent["workloads"].items():
        after = change["workloads"].get(name)
        if after is None:
            print(f"{name:<22s} missing from the change ledger")
            problems += 1
            continue
        cells = []
        for metric in metrics:
            verdict, worse = judge(before["end_to_end"][metric], after["end_to_end"][metric])
            if paired and verdict == "ok" and gain(
                before["end_to_end"][metric], after["end_to_end"][metric]
            ):
                verdict = "GAIN"
            problems += verdict == "REGRESSION"
            cells.append(f"{-worse:+.1%} {verdict}")
        print(f"{name:<22s}" + "".join(f"{cell:>22s}" for cell in cells))
        notes = []
        if after["failed"]:
            notes.append(f"{after['failed']} failed op(s)")
        for key in IDENTITY_KEYS:
            if before["info"].get(key) != after["info"].get(key):
                notes.append(f"{key} differs")
        for metric, cell in before["per_layer"].items():
            other = after["per_layer"][metric]
            if cell["exact"] and set(cell["values"]) != set(other["values"]):
                notes.append(f"exact count {metric}: {cell['values']} vs {other['values']}")
            elif layers and not cell["exact"] and cell["median"]:
                shift = -worsening(cell["median"], other["median"], cell["better"])
                print(f"    {metric:<44s} {cell['median']:>12.5g} -> "
                      f"{other['median']:>12.5g} {cell['unit']:<6s} {shift:+.1%}")
        for note in notes:
            print(f"    MISMATCH {note}")
        problems += len(notes)
    print("(+ is better; bounds and directions come from the parent ledger)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ledgers", nargs="+", help="parent change | --pairs P1 C1 P2 C2 ...")
    parser.add_argument("--pairs", action="store_true", help="alternating parent/change ledgers")
    parser.add_argument("--layers", action="store_true", help="also list per-layer medians")
    args = parser.parse_args(argv)
    ledgers = [load(path) for path in args.ledgers]
    if args.pairs:
        if len(ledgers) < 2 or len(ledgers) % 2:
            parser.error("--pairs takes an even number of ledgers: P1 C1 P2 C2 ...")
        return compare(pool(ledgers[0::2]), pool(ledgers[1::2]), paired=True, layers=args.layers)
    if len(ledgers) != 2:
        parser.error("give exactly two ledgers, or use --pairs")
    return compare(ledgers[0], ledgers[1], layers=args.layers)


if __name__ == "__main__":
    sys.exit(main())
