"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests
"""
import inspect
import json

import pytest

import layers
import run
import tracer
import workloads

clocklab = run.load_clocklab()


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_operation_list(name):
    ops = workloads.generate(name, 7)
    assert ops == workloads.generate(name, 7)
    assert ops != workloads.generate(name, 8)
    # the seed moves inputs, not the shape of the work
    def shape(seed):
        return [(p.op.label, workloads.expected_rows(p.config), p.members)
                for p in run.prepare(clocklab, workloads.generate(name, seed))]
    assert shape(7) == shape(8)


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _bound_functions() -> dict:
    out = {}
    for mod in tracer.clocklab_modules():
        for attr, value in vars(mod).items():
            if inspect.isfunction(value):
                out[(mod.__name__, attr)] = value
    for module, cls_name, attr in tracer.METHODS:
        cls = getattr(__import__(module, fromlist=[cls_name]), cls_name)
        out[(module, f"{cls_name}.{attr}")] = cls.__dict__[attr]
    return out


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    before = _bound_functions()
    t = tracer.Tracer(layers.make_hooks())
    t.install()
    try:
        import clocklab.dynamics
        import clocklab.runner
        assert hasattr(clocklab.runner.integrate, tracer.MARK)
        assert clocklab.runner.integrate is clocklab.dynamics.integrate
        prep = run.prepare(clocklab, [workloads.Operation("gedanken", "box")])[0]
        with t.operation(prep.op.label):
            assert clocklab.cli.main(prep.op.argv(tmp_path / "box.csv")) == 0
    finally:
        t.remove()
    after = _bound_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(fn, tracer.MARK) for fn in after.values())
    assert t.calls["gedanken.box_uncertainties"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(name, tmp_path):
    metrics, outcomes = run.measure(clocklab, name, 3, 0.0, tmp_path, smoke=True)
    assert metrics.keys() == run.UNITS.keys()
    assert metrics["ok_ratio"] == 1.0
    assert all(o.problem is None and o.sha256 for o in outcomes)


def test_traced_smoke_run_emits_every_layer_metric(tmp_path):
    metrics, outcomes, spans = run.measure_traced(clocklab, "classical", 3, tmp_path,
                                                  smoke=True)
    assert metrics.keys() == layers.UNITS.keys()
    assert all(o.problem is None for o in outcomes)
    assert all(s["end"] >= s["start"] for s in spans)
    assert all(s["op"] is not None for s in spans)


def test_evolve_useful_ratio_counts_distinct_state_time_pairs():
    from clocklab.states import GaussianClockSpec, gaussian_state

    state = gaussian_state(GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5), t_max=10.0)
    t = tracer.Tracer(layers.make_hooks())
    t.install()
    try:
        import clocklab.moments
        for when in (0.0, 10.0, 10.0, 5.0):
            clocklab.moments.tau_moments_simulated(state, when)
    finally:
        t.remove()
    metrics = layers.from_trace(t)
    assert metrics["operators.evolve.calls"] == 4
    assert metrics["moments.evolve_useful_ratio"] == pytest.approx(2 / 4)


def test_wrong_output_is_reported():
    config = run.prepare(clocklab, [workloads.Operation("gedanken", "box")])[0].config
    header = ["product_ratio"]
    assert workloads.output_problem(config, header, [["1.0"]]) is None
    assert "product_ratio" in workloads.output_problem(config, header, [["1.5"]])
    assert "rows" in workloads.output_problem(config, header, [["1.0"], ["1.0"]])
