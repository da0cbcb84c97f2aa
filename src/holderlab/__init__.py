"""holderlab: numerical diagnostics for boundary-pressure regularity on a channel.

The package studies incompressible flows on the periodic channel
T x [0, 1] (x-period 2) around a lacunary shear-like velocity family:
grid-based Hölder estimation, boundary-trace blow-up bookkeeping,
tubular-coordinate calculus near curved walls, divergence-free
mollification through a stream function, and a Poisson solver for the
wall-compatible modified pressure.
"""

from __future__ import annotations

from .fields import (
    ChannelField,
    ChannelGrid,
    estimate_holder_exponent,
    holder_quotient,
    modulus_of_continuity,
)
from .geometry import (
    PATCH_BUILDERS,
    SurfacePatch,
    TubularPoint,
    make_surface_patch,
)
from .mollify import Mollifier, mollification_report
from .pressure import (
    CutoffProfile,
    dirichlet_schauder_check,
    estimate_ratio,
    solve_modified_pressure,
    weak_normal_trace,
)
from .tracelab import (
    TestFunction,
    classify_blowup,
    dyadic_quotients_boundary,
    dyadic_quotients_interior,
)
from .weierstrass import WeierstrassParams, stream_field, velocity_field

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChannelField",
    "ChannelGrid",
    "CutoffProfile",
    "Mollifier",
    "PATCH_BUILDERS",
    "SurfacePatch",
    "TestFunction",
    "TubularPoint",
    "WeierstrassParams",
    "classify_blowup",
    "dirichlet_schauder_check",
    "dyadic_quotients_boundary",
    "dyadic_quotients_interior",
    "estimate_holder_exponent",
    "estimate_ratio",
    "holder_quotient",
    "make_surface_patch",
    "modulus_of_continuity",
    "mollification_report",
    "solve_modified_pressure",
    "stream_field",
    "velocity_field",
    "weak_normal_trace",
]
