"""Contract smoke test of the benchmark itself (tier-1; about 15 s).

Runs every workload for a moment through ``bench.run.quick_run_set`` and
checks what ``BENCHMARK.json`` promises: names, counts, units, that every
per-layer metric says what it should move, that the traced run's spans are
well-formed and explain the step, and that the re-enacted training step is
byte-identical to ``train_step``.  Nothing here asserts on a speed.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from bench import serving, spec, training
from bench.harness import Spans
from bench.run import ROOT, measure, quick_run_set

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def quick():
    return quick_run_set(seed=0)


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == spec.contract()


def test_names_counts_units_and_bounds():
    contract = spec.contract()
    assert len(contract["workloads"]) == 5
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert len(json.dumps(contract)) < 64 * 1024


def test_every_per_layer_metric_declares_what_it_should_move():
    end_to_end = {metric.name for metric in spec.END_TO_END}
    workloads = {workload.name for workload in spec.WORKLOADS}
    for metric in spec.PER_LAYER:
        assert metric.moves or metric.flat_on, metric.name
        for moved, workload in metric.moves:
            assert moved in end_to_end and workload in workloads, metric.name
        assert set(metric.flat_on) <= workloads, metric.name


def test_quick_run_reports_every_metric_and_fails_nothing(quick):
    assert list(quick) == [workload.name for workload in spec.WORKLOADS]
    for name, runs in quick.items():
        timed, traced = runs["timed"], runs["traced"]
        assert list(timed["metrics"]) == [m.name for m in spec.END_TO_END], name
        assert list(traced["metrics"]) == [m.name for m in spec.PER_LAYER], name
        for result in (timed, traced):
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] >= 1
            for metric, entry in result["metrics"].items():
                assert np.isfinite(entry["value"]), (name, metric)
        # an end-to-end metric that could read 0 cannot carry a relative bound
        assert all(entry["value"] > 0 for entry in timed["metrics"].values()), name
        assert traced["metrics"]["failed_share"]["value"] == 0.0


def test_reenacted_step_is_byte_identical_to_train_step():
    twins = []
    for _ in range(2):
        workload = training.build(spec.CONV, seed=3, trace=False, quick=True)
        workload.model_spec = training.get_model(workload.model_name, reduced=True)
        twins.append((workload._trainer(), workload._dataset()))
    (plain, batches), (reenacted, _) = twins
    for x, y in batches[:3]:
        plain.train_step(x, y, kl_weight=0.01)
        training.reenacted_step(reenacted, x, y, 0.01, Spans())
    for a, b in zip(plain.model.parameters(), reenacted.model.parameters()):
        assert a.value.tobytes() == b.value.tobytes(), a.name
    assert plain.bank.grng_bank.states() == reenacted.bank.grng_bank.states()
    assert plain.history.losses == reenacted.history.losses
    assert plain.epsilon_offchip_bytes() == reenacted.epsilon_offchip_bytes()


@pytest.mark.parametrize("name", [spec.DENSE, spec.CONV])
def test_spans_are_well_formed_and_explain_the_step(quick, name):
    spans = quick[name]["spans"].records
    assert spans
    for span in spans:
        assert set(span) == {"op", "name", "parent", "start", "end"}
        assert span["end"] >= span["start"]
    roots = {span["op"]: span for span in spans if span["name"] == "train_step"}
    assert roots and all(root["parent"] is None for root in roots.values())
    for span in spans:
        root = roots[span["op"]]  # one op's spans share its id ...
        assert root["start"] <= span["start"] and span["end"] <= root["end"]  # ... and nest
    metrics = quick[name]["traced"]["metrics"]
    assert 0.95 <= metrics["bench.span_coverage"]["value"] <= 1.05
    # the per-layer budget sums to the step it decomposes
    layers = ("core.eps_forward_ms", "core.eps_retrieve_ms", "core.finish_iteration_ms",
              "bnn.forward_self_ms", "bnn.backward_self_ms", "bnn.step_other_ms",
              "nn.loss_ms", "nn.optimizer_step_ms")
    budget = sum(metrics[layer]["value"] for layer in layers)
    step_ms = sum(1e3 * (root["end"] - root["start"]) for root in roots.values()) / len(roots)
    # reported times are at reference machine speed, the spans are raw
    assert budget * metrics["bench.machine_speed"]["value"] == pytest.approx(step_ms, rel=0.05)


def test_serving_spans_adopt_the_products_trace_tree(quick):
    names = {span["name"] for span in quick[spec.HTTP]["spans"].records}
    assert {"serve.client_rtt", "serve.stage.admission", "serve.stage.forward"} <= names
    names = {span["name"] for span in quick[spec.BURST]["spans"].records}
    assert {"serve.submit", "serve.result_wait"} <= names


def test_exact_counts_repeat_and_the_seed_drives_the_inputs(quick):
    first = quick[spec.DENSE]
    again = measure(spec.DENSE, seed=0, seconds=0.4, trace=True, quick=True)
    for metric in spec.PER_LAYER:
        if spec.DENSE in metric.exact_on:
            assert (
                again["result"]["metrics"][metric.name] == first["traced"]["metrics"][metric.name]
            ), metric.name
    for key in ("input_digest", "fingerprint_after_oracle"):
        assert again["info"][key] == first["info"][key]
    for module, name in ((training, spec.CONV), (serving, spec.BURST)):
        digests = []
        for seed in (0, 0, 1):
            workload = module.build(name, seed, trace=False)
            workload.generate_inputs()
            digests.append(workload.input_digest)
        assert digests[0] == digests[1] != digests[2], name
