"""Every name a holderlab module exports resolves, so ``import *`` works."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import holderlab

MODULES = ["holderlab"] + [f"holderlab.{m.name}"
                           for m in pkgutil.iter_modules(holderlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_import_loads_no_integrator_and_starts_no_thread():
    # the grid kernels' thread pool starts with the first large grid, and
    # no mollification needs scipy.integrate
    src = os.path.dirname(os.path.dirname(holderlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, threading, holderlab; "
             "print('scipy.integrate' in sys.modules, threading.active_count()); "
             "u = holderlab.velocity_field(holderlab.WeierstrassParams(0.5, 4), "
             "holderlab.ChannelGrid(32, 33)); "
             "holderlab.mollification_report(u, 0.5, [0.2, 0.1, 0.05]); "
             "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False", "1", "False"]
