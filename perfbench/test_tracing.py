"""The traced run's spans, its "not measured" path, and BENCHMARK.json."""

import json
import os
import sys
import types

import pytest

from run import END_TO_END, PER_LAYER
from tracing import Tracer, union_length
from worker import DENSITIES, WORKLOADS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))


class _Outcome:
    def __init__(self, rejections):
        self.rejections = rejections


class _Target:
    def __init__(self, mixture):
        self.mixture = mixture
        self.log_pi = lambda x: self.mixture.densities(x)[0]


@pytest.fixture
def fake_layers(monkeypatch):
    """A stand-in module with a kernel step and a fresh mixture class, so
    that wrapping patches nothing that other tests use."""
    module = types.ModuleType("fake_layers")
    module.Mixture = type("Mixture", (), {"densities": lambda self, x: [x, -x]})

    def step(state, mixture, target, rejections):
        target.log_pi(state)
        mixture.densities(state)
        return _Outcome(rejections)

    module.step = step
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_wrappers_pass_results_through_and_split_step_time(fake_layers):
    tracer = Tracer()
    mixture = fake_layers.Mixture()
    target = _Target(mixture)
    step = tracer.wrap_step("fake_layers", "step")
    tracer.wrap_log_pi(target)
    tracer.wrap_densities("fake_layers", "Mixture.densities")
    assert fake_layers.step is step
    assert [step(1.0, mixture, target, r).rejections for r in (0, 3)] == [0, 3]
    assert target.log_pi(2.0) == 2.0
    # Two steps, one log_pi each (plus one outside), one density call per
    # step outside log_pi; the calls made inside log_pi are not counted.
    rows = tracer.step_rows()
    assert rows[:, 3:].tolist() == [[0, 1], [3, 1]]
    assert len(tracer.log_pi_s) == 3 and len(tracer.density_s) == 2
    for start, end, self_s, _, _ in rows:
        assert 0.0 <= self_s <= end - start
    assert not tracer.missing


def test_missing_density_routine_is_reported_not_measured(monkeypatch):
    from rgess.distributions import MixtureModel

    monkeypatch.delattr(MixtureModel, DENSITIES[1].split(".")[1])
    tracer = Tracer()
    assert tracer.wrap_densities(*DENSITIES) is None
    values, notes = layer_metrics(tracer, "rgess.samplers.tmrgess_step", None, None, {}, 1000)
    for name in ("distributions.component_densities.calls_per_step",
                 "distributions.component_densities.us_p50", "samplers.step.self_us"):
        assert values[name] is None
        assert notes[name].startswith("not measured: rgess.distributions.MixtureModel")
    assert values["samplers.step.calls"] == 0
    assert values["targets.log_pi.calls"] == 0


def test_union_length_merges_overlapping_spans():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0


def test_benchmark_json_matches_the_metrics_the_script_prints():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
