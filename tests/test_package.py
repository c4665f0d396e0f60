"""
Each public name has one import path: its home module. Importing the
package has no side effects on the BLAS thread pools, and only the
entry points change them.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qrlev

MODULES = sorted(m.name for m in pkgutil.iter_modules(qrlev.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_submodule(name):
    importlib.import_module(f"qrlev.{name}")
    assert getattr(qrlev, name) is sys.modules[f"qrlev.{name}"]


def test_package_exposes_only_submodules_and_version():
    for name in MODULES:
        importlib.import_module(f"qrlev.{name}")
    public = {n for n in vars(qrlev) if not n.startswith("_")}
    assert public == set(MODULES)
    assert qrlev.__version__ == "0.1.0"


# Reads each loaded OpenBLAS pool's thread count without qrlev, imports
# qrlev and every submodule, and reads the counts again.
IMPORT_PROBE = r"""
import ctypes, importlib, json, pkgutil

import numpy
import scipy.linalg


def counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, name):
                found.append(getattr(lib, name)())
                break
    return found


before = counts()
import qrlev
for module in pkgutil.iter_modules(qrlev.__path__):
    importlib.import_module("qrlev." + module.name)
print(json.dumps({
    "before": before,
    "after": counts(),
    "discoveries": qrlev.linalg.blas_pools.cache_info().misses,
}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="the probe reads /proc/self/maps")
def test_import_leaves_blas_threads_alone_and_discovers_nothing():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    if not probe["before"]:
        pytest.skip("no OpenBLAS library loaded")
    assert probe["after"] == probe["before"]
    assert probe["discoveries"] == 0


# Imports qrlev and every submodule before anything imports
# scipy.linalg, lists which of scipy.linalg's heavy imports are loaded,
# then imports scipy.linalg and compares qrlev's LAPACK routines with
# the ones scipy.linalg.lapack exports.
LAPACK_ROUTINES = ("dgeqrf", "dgeqrf_lwork", "dorgqr", "dgejsv", "dtrtrs")
LAZY_IMPORT_PROBE = r"""
import importlib, json, pkgutil, sys

import qrlev
for module in pkgutil.iter_modules(qrlev.__path__):
    importlib.import_module("qrlev." + module.name)
loaded = [name for name in ("scipy.linalg", "numpy.f2py", "numpy.testing")
          if name in sys.modules]
discoveries = qrlev.linalg.blas_pools.cache_info().misses

import scipy.linalg.lapack
print(json.dumps({
    "loaded": loaded,
    "discoveries": discoveries,
    "same": {name: getattr(qrlev.linalg, name) is getattr(scipy.linalg.lapack, name)
             for name in %r},
}))
""" % (LAPACK_ROUTINES,)


def test_import_skips_scipy_linalg_and_shares_its_lapack():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["loaded"] == []
    assert probe["discoveries"] == 0
    assert probe["same"] == dict.fromkeys(LAPACK_ROUTINES, True)


# The entry points, as (module, enclosing function).
BLAS_THREADS_ENTRY_POINTS = [
    ("acceptance", "run_all"),
    ("cli", "main"),
    ("experiments", "run_figure"),
    ("generate", "generate"),
]


def _blas_threads_calls(module):
    """(module, enclosing function, entered by a with, args) per blas_threads call."""
    tree = ast.parse((Path(qrlev.__path__[0]) / f"{module}.py").read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    entered = {
        item.context_expr
        for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
    }
    calls = []
    for node in ast.walk(tree):
        callee = getattr(node, "func", None)
        if (getattr(callee, "id", None) or getattr(callee, "attr", None)) != "blas_threads":
            continue
        func = parents.get(node)
        while func is not None and not isinstance(func, ast.FunctionDef):
            func = parents.get(func)
        calls.append((
            module,
            func.name if func else None,
            node in entered,
            [ast.literal_eval(arg) for arg in node.args],
        ))
    return calls


def test_blas_threads_entered_only_at_the_entry_points():
    calls = sorted(call for module in MODULES for call in _blas_threads_calls(module))
    assert calls == [(module, func, True, [1]) for module, func in BLAS_THREADS_ENTRY_POINTS]
