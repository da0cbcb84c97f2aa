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
    # scipy.integrate loads with the first mollification, and the grid
    # kernels' thread pool starts with the first large grid
    src = os.path.dirname(os.path.dirname(holderlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, threading, holderlab; "
             "print('scipy.integrate' in sys.modules, threading.active_count())")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False", "1"]
