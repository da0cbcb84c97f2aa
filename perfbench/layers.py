"""Which holderlab functions the traced run wraps, and the per-layer metrics.

Every public function (no leading underscore) defined in a layer module
is wrapped, plus the methods listed in ``_METHODS``.  The layers follow
the package's modules:

  trig         dyadic-exact sine and cosine
  weierstrass  lacunary series sampling
  fields       channel fields and the Hölder scans
  pressure     modified-pressure Neumann solve, weak traces, Dirichlet sweeps
  mollify      divergence-free mollifier
  tracelab     exact coefficient sums of the trace quotients
  geometry     per-point chart calculus
  acceptance   the nine gate criteria
  cli          the command line

Work counts come from call arguments, never from inside the program.
"""

from __future__ import annotations

import importlib
import inspect
import sys

import numpy as np

from tracer import Summary, Target

LAYERS = ("trig", "weierstrass", "fields", "pressure", "mollify", "tracelab",
          "geometry", "acceptance", "cli")

_METHODS = {
    "fields": (("ChannelField", "__post_init__"), ("ChannelField", "from_function")),
    "pressure": (("TrigPoly2D", "sample"), ("CutoffProfile", "on_grid")),
}


def _grid_nodes(*args, **kwargs):
    f = args[0] if args else next(iter(kwargs.values()))
    return f.grid.nx * f.grid.ny


def _series_nodes(p, x, y):
    return (p.n_terms + 1) * np.broadcast(np.asarray(x), np.asarray(y)).size


def _pair_terms(p, *_, **__):
    return (p.n_terms + 1) ** 2


def _kernel_taps(psi_ext, m):
    g = psi_ext.grid
    return ((2 * int(m.epsilon / g.hx) + 1) * (2 * int(m.epsilon / g.hy) + 1)
            * g.nx * g.ny)


def _schauder_nodes(F11, F12, F22, grid):
    return grid.nx * grid.ny


# work count per call, keyed by the span name "<layer>.<function>"
_COUNTERS = {
    "weierstrass.eval_velocity": _series_nodes,
    "weierstrass.eval_stream": _series_nodes,
    "fields.holder_quotient": _grid_nodes,
    "fields.estimate_holder_exponent": _grid_nodes,
    "fields.modulus_of_continuity": _grid_nodes,
    "pressure.solve_modified_pressure": _grid_nodes,
    "pressure.solve_schauder_problem": _schauder_nodes,
    "mollify.mollify_stream": _kernel_taps,
    "tracelab.eval_trace": _pair_terms,
    "tracelab.decompose_trace": _pair_terms,
}

_POINT_FUNCTIONS = ("chart", "metric", "normal", "gradient_curvilinear",
                    "divergence_curvilinear", "laplacian_curvilinear",
                    "tangential_laplacian", "normal_laplacian_part")


def targets(holderlab) -> list:
    """The attributes to wrap, one :class:`Target` each."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"{holderlab.__name__}.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                name = f"{layer}.{attr}"
                out.append(Target(module, attr, layer, name, _COUNTERS.get(name)))
        for cls_name, attr in _METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            out.append(Target(cls, attr, layer, f"{layer}.{cls_name}.{attr}"))
    return out


def package_modules(holderlab) -> list:
    """The package and every loaded submodule, for the reference sweep."""
    prefix = holderlab.__name__ + "."
    return [holderlab] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]


def criterion_numbers(holderlab) -> dict:
    """Span name of each gate criterion -> its number."""
    acceptance = importlib.import_module(f"{holderlab.__name__}.acceptance")
    return {f"acceptance.{fn.__name__}": i + 1
            for i, fn in enumerate(acceptance.ALL_CRITERIA)}


# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
METRICS = (
    ("weierstrass.calls", "count"),
    ("weierstrass.term_nodes", "count"),
    ("weierstrass.self_s", "s"),
    ("trig.calls", "count"),
    ("trig.self_s", "s"),
    ("fields.scan_calls", "count"),
    ("fields.scan_nodes", "count"),
    ("fields.holder_quotient_s", "s"),
    ("fields.exponent_s", "s"),
    ("fields.modulus_s", "s"),
    ("fields.field_builds", "count"),
    ("fields.field_build_s", "s"),
    ("fields.from_function_s", "s"),
    ("pressure.neumann_solves", "count"),
    ("pressure.neumann_nodes", "count"),
    ("pressure.neumann_s", "s"),
    ("pressure.trace_calls", "count"),
    ("pressure.trace_s", "s"),
    ("pressure.ratio_s", "s"),
    ("pressure.dirichlet_solves", "count"),
    ("pressure.dirichlet_nodes", "count"),
    ("pressure.dirichlet_s", "s"),
    ("pressure.schauder_check_s", "s"),
    ("pressure.trigpoly_sample_s", "s"),
    ("mollify.reports", "count"),
    ("mollify.kernel_taps", "count"),
    ("mollify.stream_solve_s", "s"),
    ("mollify.convolve_s", "s"),
    ("mollify.rebuild_s", "s"),
    ("mollify.report_s", "s"),
    ("tracelab.calls", "count"),
    ("tracelab.pair_terms", "count"),
    ("tracelab.self_s", "s"),
    ("geometry.patch_builds", "count"),
    ("geometry.patch_build_s", "s"),
    ("geometry.point_calls", "count"),
    ("geometry.self_s", "s"),
    ("acceptance.self_s", "s"),
    *((f"acceptance.c{n}_s", "s") for n in range(1, 10)),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(s: Summary, criteria: dict, bytes_written: int) -> dict:
    """Per-layer metric values of one traced pass (all but the last two,
    which the runner measures around the passes)."""

    def calls(*names):
        return sum(s.calls.get(n, 0) for n in names)

    def count(*names):
        return sum(s.counts.get(n, 0) for n in names)

    def own(*names):
        return sum(s.exclusive.get(n, 0.0) for n in names)

    scans = ("fields.holder_quotient", "fields.estimate_holder_exponent",
             "fields.modulus_of_continuity")
    points = sum(s.outermost.get(f"geometry.{n}", 0) for n in _POINT_FUNCTIONS)
    crit = {n: 0.0 for n in range(1, 10)}
    for name, number in criteria.items():
        crit[number] += s.inclusive.get(name, 0.0)
    values = {
        "weierstrass.calls": s.layer_outermost.get("weierstrass", 0),
        "weierstrass.term_nodes": count("weierstrass.eval_velocity", "weierstrass.eval_stream"),
        "weierstrass.self_s": s.layer_self.get("weierstrass", 0.0),
        "trig.calls": s.layer_outermost.get("trig", 0),
        "trig.self_s": s.layer_self.get("trig", 0.0),
        "fields.scan_calls": calls(*scans),
        "fields.scan_nodes": count(*scans),
        "fields.holder_quotient_s": own("fields.holder_quotient"),
        "fields.exponent_s": own("fields.estimate_holder_exponent"),
        "fields.modulus_s": own("fields.modulus_of_continuity"),
        "fields.field_builds": calls("fields.ChannelField.__post_init__"),
        "fields.field_build_s": own("fields.ChannelField.__post_init__"),
        "fields.from_function_s": own("fields.ChannelField.from_function"),
        "pressure.neumann_solves": calls("pressure.solve_modified_pressure"),
        "pressure.neumann_nodes": count("pressure.solve_modified_pressure"),
        "pressure.neumann_s": own("pressure.solve_modified_pressure",
                                  "pressure.CutoffProfile.on_grid"),
        "pressure.trace_calls": calls("pressure.weak_normal_trace"),
        "pressure.trace_s": own("pressure.weak_normal_trace"),
        "pressure.ratio_s": own("pressure.estimate_ratio"),
        "pressure.dirichlet_solves": calls("pressure.solve_schauder_problem"),
        "pressure.dirichlet_nodes": count("pressure.solve_schauder_problem"),
        "pressure.dirichlet_s": own("pressure.solve_schauder_problem"),
        "pressure.schauder_check_s": own("pressure.dirichlet_schauder_check"),
        "pressure.trigpoly_sample_s": own("pressure.TrigPoly2D.sample"),
        "mollify.reports": calls("mollify.mollification_report"),
        "mollify.kernel_taps": count("mollify.mollify_stream"),
        "mollify.stream_solve_s": own("mollify.stream_from_velocity"),
        "mollify.convolve_s": own("mollify.mollify_stream"),
        "mollify.rebuild_s": own("mollify.velocity_from_stream"),
        "mollify.report_s": own("mollify.mollification_report"),
        "tracelab.calls": s.layer_outermost.get("tracelab", 0),
        "tracelab.pair_terms": count("tracelab.eval_trace", "tracelab.decompose_trace"),
        "tracelab.self_s": s.layer_self.get("tracelab", 0.0),
        "geometry.patch_builds": calls("geometry.make_surface_patch"),
        "geometry.patch_build_s": s.inclusive.get("geometry.make_surface_patch", 0.0),
        "geometry.point_calls": points,
        "geometry.self_s": s.layer_self.get("geometry", 0.0),
        "acceptance.self_s": s.layer_self.get("acceptance", 0.0),
        **{f"acceptance.c{n}_s": crit[n] for n in range(1, 10)},
        "cli.self_s": s.layer_self.get("cli", 0.0),
        "cli.bytes_written": bytes_written,
    }
    return values
