"""Tests of the benchmark itself: its checks, its tracer and its runner.

Run from the root of the repository:

    python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

holderlab = run.load_holderlab(HERE.parent)

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from holderlab import acceptance, fields, mollify, pressure, weierstrass  # noqa: E402
from holderlab.fields import ChannelField, ChannelGrid  # noqa: E402
from holderlab.pressure import CutoffProfile, TrigPoly2D  # noqa: E402
from holderlab.tracelab import TestFunction  # noqa: E402
from holderlab.weierstrass import WeierstrassParams  # noqa: E402


# ------------------------------------------------------------ tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_layers_on_a_fake_clock():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    ns = SimpleNamespace()

    def leaf():  # layer a, nested inside layer b
        clock.advance(2.0)

    def helper():  # layer a, nested inside layer a
        clock.advance(0.5)

    def middle():  # layer b
        clock.advance(1.0)
        ns.leaf()
        clock.advance(3.0)

    def top():  # layer a
        clock.advance(5.0)
        ns.middle()
        ns.helper()
        clock.advance(0.25)

    ns.leaf = t.wrap(leaf, "a", "a.leaf")
    ns.helper = t.wrap(helper, "a", "a.helper", counter=lambda: 7)
    ns.middle = t.wrap(middle, "b", "b.middle")
    t.wrap(top, "a", "a.top")()

    s = tracer.summarize(t.spans)
    assert s.inclusive == {"a.top": 11.75, "b.middle": 6.0, "a.leaf": 2.0, "a.helper": 0.5}
    assert s.exclusive == {"a.top": 5.25, "b.middle": 4.0, "a.leaf": 2.0, "a.helper": 0.5}
    assert s.layer_self == {"a": 7.75, "b": 4.0}
    # a.leaf re-enters layer a from layer b; a.helper stays inside a.top
    assert s.layer_outermost == {"a": 2, "b": 1}
    assert s.counts["a.helper"] == 7
    assert [span[2] for span in t.spans] == [-1, 0, 1, 0]


def test_span_ends_when_the_wrapped_function_raises():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def boom():
        clock.advance(1.5)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        t.wrap(boom, "a", "a.boom")()
    assert tracer.summarize(t.spans).exclusive == {"a.boom": 1.5}
    assert t._stack == []


def _snapshot():
    owners = layers.package_modules(holderlab) + [
        ChannelField, TrigPoly2D, CutoffProfile]
    return {id(o): (o, dict(vars(o))) for o in owners}


def _assert_unchanged(before):
    for owner, attrs in before.values():
        now = dict(vars(owner))
        assert now.keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert now[name] is value, f"{owner!r}.{name} was not restored"


def test_every_wrapped_attribute_is_restored():
    before = _snapshot()
    t = tracer.Tracer()
    undo = tracer.instrument(t, layers.targets(holderlab), layers.package_modules(holderlab))
    try:
        # names that other modules imported are wrapped too
        assert pressure.holder_quotient is not before[id(pressure)][1]["holder_quotient"]
        assert acceptance.velocity_field is not before[id(acceptance)][1]["velocity_field"]
        assert mollify.stream_from_velocity is not before[id(mollify)][1]["stream_from_velocity"]
        assert acceptance.ALL_CRITERIA[0] is not before[id(acceptance)][1]["ALL_CRITERIA"][0]
        grid = ChannelGrid(nx=8, ny=9)
        holderlab.velocity_field(WeierstrassParams(alpha=0.5, n_terms=3), grid)
        with pytest.raises(ValueError):
            ChannelField(grid, np.zeros((3, 8, 9)))
    finally:
        tracer.restore(undo)
    _assert_unchanged(before)
    names = {span[0] for span in t.spans}
    assert {"weierstrass.velocity_field", "weierstrass.eval_velocity",
            "trig.sinpi_array", "fields.ChannelField.__post_init__"} <= names


def test_traced_round_restores_attributes_and_counts_work(tmp_path):
    before = _snapshot()
    t = tracer.Tracer()
    undo = tracer.instrument(t, layers.targets(holderlab), layers.package_modules(holderlab))
    try:
        grid = ChannelGrid(nx=16, ny=17)
        p = WeierstrassParams(alpha=0.5, n_terms=3)
        u = weierstrass.velocity_field(p, grid)
        pressure.solve_modified_pressure(u, CutoffProfile(delta=0.2))
    finally:
        tracer.restore(undo)
    _assert_unchanged(before)
    m = layers.layer_metrics(tracer.summarize(t.spans), layers.criterion_numbers(holderlab), 0)
    assert m["weierstrass.calls"] == 1
    assert m["weierstrass.term_nodes"] == 4 * 16 * 17
    assert m["pressure.neumann_solves"] == 1
    assert m["pressure.neumann_nodes"] == 16 * 17
    assert m["fields.field_builds"] == 3  # u, P and p
    assert set(m) | {"process.cpu_s", "trace.overhead_s"} == {n for n, _ in layers.METRICS}


def test_benchmark_json_lists_the_per_layer_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.METRICS)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# ------------------------------------------------------------ runner


def _bench(tmp_path, monkeypatch, round_fn, seconds=0.0):
    monkeypatch.setitem(workloads.WORKLOADS, "acceptance_gate",
                        (lambda seed, out: {}, round_fn))
    args = SimpleNamespace(workload="acceptance_gate", seed=0, seconds=seconds, trace=0)
    return run.bench(args, holderlab, tmp_path, started=0.0)


def test_a_round_that_does_not_repeat_is_incorrect(tmp_path, monkeypatch):
    calls = []

    def round_fn(inp, op, check):
        calls.append(check)
        return workloads.Round(digest=(op(len, calls),))

    result = _bench(tmp_path, monkeypatch, round_fn)
    assert calls == [True, False]
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 0


def test_a_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    def round_fn(inp, op, check):
        op(abs, -1)
        op(math.sqrt, -1.0)
        return workloads.Round(digest=(1,))

    result = _bench(tmp_path, monkeypatch, round_fn)
    assert result["attempted"] == 4 and result["failed"] == 2
    assert result["correct"] is True


def test_command_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(HERE.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dirichlet_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/holderlab" in proc.stderr and "is missing" in proc.stderr


# ------------------------------------------------------------ lacunary checks


@pytest.fixture(scope="module")
def lacunary_case():
    grid = ChannelGrid(nx=1024, ny=1025)
    case = {"alpha": 0.25, "n_terms": 11, "nodes": [(5, 7), (200, 0), (17, 131)],
            "modulus_h": 2.0**-8}
    p = WeierstrassParams(alpha=case["alpha"], n_terms=case["n_terms"])
    u = weierstrass.velocity_field(p, grid)
    psi = weierstrass.stream_field(p, grid)
    u2 = ChannelField(grid, u.values[1])
    scales = [2.0**-k for k in range(6, 10)]
    out = {
        "fitted": fields.estimate_holder_exponent(u2, scales).fitted_exponent,
        "seminorm": fields.holder_quotient(u2, p.alpha, 4.0 * max(grid.hx, grid.hy),
                                           0.25).seminorm,
        "modulus": fields.modulus_of_continuity(u2, case["modulus_h"]),
    }
    return case, u.values, psi.values[0], out


def test_lacunary_check_accepts_the_program_output(lacunary_case):
    case, u, psi, out = lacunary_case
    assert workloads.check_lacunary(case, u, psi, **out) == []


@pytest.mark.parametrize("perturb, message", [
    (lambda u, psi, out: u.__setitem__((0, 5, 7), u[0, 5, 7] + 1e-9), "u1[5,7]"),
    (lambda u, psi, out: psi.__setitem__((17, 131), psi[17, 131] * (1 + 1e-9)), "psi[17,131]"),
    (lambda u, psi, out: u.__setitem__((1, 3, -1), 1e-15), "walls"),
    (lambda u, psi, out: out.__setitem__("fitted", 0.25 + 0.06), "fitted exponent"),
    (lambda u, psi, out: out.__setitem__("seminorm", 1.01 * workloads.holder_bound(0.25)),
     "exceeds the bound"),
    (lambda u, psi, out: out.__setitem__("modulus", np.nextafter(out["modulus"], 0.0)),
     "brute force"),
])
def test_lacunary_check_rejects_a_perturbed_output(lacunary_case, perturb, message):
    case, u, psi, out = lacunary_case
    u, psi, out = u.copy(), psi.copy(), dict(out)
    perturb(u, psi, out)
    failures = workloads.check_lacunary(case, u, psi, **out)
    assert any(message in f for f in failures), failures


def test_brute_modulus_sees_pairs_across_the_periodic_seam():
    vals = np.zeros((16, 9))
    vals[0, 4] = 1.0  # its x-neighbour across the seam is row 15
    vals[1:15, 4] = 1.0
    assert workloads.brute_modulus(vals, 2.0 / 16, 1.0 / 8, 2.0 / 16) == 1.0


# ------------------------------------------------------------ pressure checks


@pytest.fixture(scope="module")
def pressure_case():
    phi = CutoffProfile(delta=0.2)
    theta = TestFunction.mean_one()
    solutions, velocities = [], []
    for n in (64, 128, 256):
        grid = ChannelGrid(nx=n, ny=n + 1)
        velocities.append(ChannelField.from_function(grid, workloads.single_mode_velocity))
        solutions.append(pressure.solve_modified_pressure(velocities[-1], phi))
    ratio = pressure.estimate_ratio(solutions[0], velocities[0], 0.5)
    tall = ChannelGrid(nx=256, ny=2049)
    u = weierstrass.velocity_field(WeierstrassParams(alpha=0.25, n_terms=6), tall)
    sol = pressure.solve_modified_pressure(u, phi)
    heights = list(range(3, 9))
    traces = [pressure.weak_normal_trace(sol.p, theta, 2.0**-n) for n in heights]
    walls = [pressure.weak_normal_trace(sol.P, theta, y) for y in (0.0, 1.0)]
    return solutions, heights, traces, walls, ratio


def _errors(solutions, extra=None):
    out = []
    for s in solutions:
        p = s.p.values[0]
        if extra is not None:
            p = p + extra(p.shape)
        out.append(workloads.single_mode_error(p))
    return out


def test_pressure_check_accepts_the_program_output(pressure_case):
    solutions, heights, traces, walls, ratio = pressure_case
    assert workloads.check_pressure(_errors(solutions), heights, traces, walls, ratio) == []


def test_pressure_check_rejects_an_order_h_term(pressure_case):
    solutions, heights, traces, walls, ratio = pressure_case

    def order_h(shape):
        nx, ny = shape
        return (2.0 / nx) * np.cos(np.pi * np.arange(nx) * 2.0 / nx)[:, None] * np.ones(ny)

    errors = _errors(solutions, order_h)
    failures = workloads.check_pressure(errors, heights, traces, walls, ratio)
    assert any("single-mode orders" in f for f in failures), failures


@pytest.mark.parametrize("which, message", [
    ("traces", "log-slope"), ("walls", "wall traces"), ("ratio", "norm ratio")])
def test_pressure_check_rejects_perturbed_traces(pressure_case, which, message):
    solutions, heights, traces, walls, ratio = pressure_case
    args = {"traces": traces, "walls": walls, "ratio": ratio}
    args[which] = {"traces": [traces[0]] * len(traces), "walls": [walls[0], 0.02],
                   "ratio": math.nan}[which]
    failures = workloads.check_pressure(_errors(solutions), heights, **args)
    assert any(message in f for f in failures), failures


# ------------------------------------------------------------ dirichlet checks


def test_sweep_check_rejects_a_wide_or_zero_sweep():
    rng = np.random.default_rng(0)
    F = tuple(workloads.random_trig_poly(rng) for _ in range(3))
    sweep = pressure.dirichlet_schauder_check(*F, 0.5, (64, 128))
    assert workloads.check_sweeps([sweep]) == []
    wide = dataclasses.replace(sweep, ratios=(1.0, 2.5))
    zero = dataclasses.replace(sweep, zero_data=True)
    assert workloads.check_sweeps([wide]) and workloads.check_sweeps([zero])


@pytest.mark.parametrize("slot", ["F11", "F22"])
def test_single_term_check_rejects_an_order_h_term(slot):
    case = {"slot": slot, "amp": 1.3, "kx": 3, "ky": 2}
    data = TrigPoly2D(terms=((case["amp"], case["kx"], case["ky"], "cs"),))
    zero = TrigPoly2D(terms=())
    F = (data, zero, zero) if slot == "F11" else (zero, zero, data)
    good, bad = [], []
    for n in (64, 128, 256):
        v = pressure.solve_schauder_problem(*F, ChannelGrid(nx=n, ny=n // 2 + 1)).values[0]
        good.append(workloads.single_term_error(case, v))
        bad.append(workloads.single_term_error(case, v + 2.0 / n))
    assert workloads.check_single_term(case, good) == []
    assert workloads.check_single_term(case, bad)


@pytest.fixture(scope="module")
def mollification_case():
    grid = ChannelGrid(nx=64, ny=129)
    u, amplitude = workloads.tangential_flow(np.random.default_rng(3), grid)
    report = mollify.mollification_report(u, 0.5, (0.1, 0.05, 0.025, 0.0125))
    return report, amplitude


def test_mollification_check_accepts_the_program_output(mollification_case):
    report, amplitude = mollification_case
    assert workloads.check_mollification(report, 64, 129, amplitude) == []


def test_mollification_check_rejects_a_perturbed_report(mollification_case):
    report, amplitude = mollification_case
    errs = report.c_beta_errors[0.25]
    bound = workloads.divergence_bound(64, 129, amplitude)
    perturbed = [
        (dataclasses.replace(report, wall_residuals=(0.0, 1e-300, 0.0, 0.0)), "walls"),
        (dataclasses.replace(report, c_beta_errors={
            **report.c_beta_errors, 0.25: (errs[0], errs[2], errs[1], errs[3])}),
         "strictly decrease"),
        (dataclasses.replace(report, max_divergences=(0.0, 2.0 * bound, 0.0, 0.0)),
         "discrete divergence"),
    ]
    for bad, message in perturbed:
        failures = workloads.check_mollification(bad, 64, 129, amplitude)
        assert any(message in f for f in failures), failures


def test_divergence_bound_grows_with_the_grid():
    assert (workloads.divergence_bound(64, 129, 1.0)
            < workloads.divergence_bound(128, 257, 1.0)
            < workloads.divergence_bound(256, 513, 1.0))


# ------------------------------------------------------------ acceptance checks


def _gate_payload(**override):
    result = {str(n): {"name": f"c{n}", "passed": True, "checks": {"ok": True},
                       "details": {}} for n in range(1, 10)}
    for key, value in override.items():
        result[key] = value
    return json.dumps(result, indent=2, sort_keys=True).encode()


def test_acceptance_check_rejects_a_failed_gate():
    assert workloads.check_acceptance(0, _gate_payload()) == []
    assert workloads.check_acceptance(1, _gate_payload())
    assert workloads.check_acceptance(0, b"{")
    assert workloads.check_acceptance(0, _gate_payload(**{"4": {
        "name": "c4", "passed": False, "checks": {"within_runtime": False}}}))
    assert workloads.check_acceptance(0, _gate_payload(**{"7": {
        "name": "c7", "passed": True, "checks": {"pde_residual_le_1e-10": False}}}))
    short = json.loads(_gate_payload())
    del short["9"]
    assert workloads.check_acceptance(0, json.dumps(short).encode())
