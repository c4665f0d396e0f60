"""
Span tracer that times qrlev's modules from outside the package.

The package is left untouched. `Tracer.install` rebinds each traced
function, in every qrlev module that holds a reference to it (callers
use `from .linalg import householder_qr`, so patching linalg alone
would miss them), and inside the module-level tables that dispatch
through function references (`experiments.FIGURE_RUNNERS` and
`acceptance.CRITERIA`). `Tracer.remove` puts every
original back.

Each call to a traced function records one span (name, start, end,
parent). A function that calls itself, as `jacobi_svd` and
`householder_qr` do when they prescale or transpose, stays one span.
Spans are kept in memory; `summarize` turns a slice of them into the
per-module metrics and `dump` writes them out when the run ends.
"""

import functools
import hashlib
import importlib
import json
import os
import sys
import time

import numpy as np

# (module, function) -> span name. Functions sharing a span name are
# summed into one figure.
TRACED = {
    ("linalg", "householder_qr"): "linalg.householder_qr",
    ("linalg", "jacobi_svd"): "linalg.jacobi_svd",
    ("linalg", "two_norm"): "linalg.two_norm",
    ("linalg", "solve_upper"): "linalg.solve_upper",
    ("linalg", "project_complement"): "linalg.project_complement",
    ("linalg", "gram_residual"): "linalg.gram_residual",
    ("leverage", "leverage_qr"): "leverage.leverage_qr",
    ("leverage", "leverage_svd"): "leverage.leverage_svd",
    ("leverage", "matrix_stats"): "leverage.matrix_stats",
    ("angles", "principal_angles"): "angles.principal_angles",
    ("generate", "generate"): "generate.generate",
    ("generate", "random_orthonormal"): "generate.random_orthonormal",
    ("perturb", "measure"): "perturb.measure",
    **{
        ("perturb", fn): "perturb.construct"
        for fn in (
            "rotation_perturbation",
            "normwise_perturbation",
            "row_subset_perturbation",
            "same_row_scaling_perturbation",
            "componentwise_row_perturbation",
        )
    },
    **{
        ("bounds", f"bound_{tag}"): "bounds.evaluate"
        for tag in ("t1", "c1", "t2", "t3_1", "t3_2", "t3_3", "t3_4")
    },
    ("bounds", "rdot_rinv"): "bounds.rdot_rinv",
    **{("experiments", f"run_fig{k}"): "experiments.runner" for k in range(1, 6)},
    ("experiments", "verify_rows"): "experiments.verify_rows",
    ("experiments", "emit_csv"): "experiments.emit_csv",
    ("experiments", "emit_svg"): "experiments.emit_svg",
    ("svgplot", "render"): "svgplot.render",
    ("acceptance", "run_all"): "acceptance.run_all",
    **{("acceptance", f"criterion_{k}"): "acceptance.criteria" for k in range(1, 14)},
    ("io", "read_matrix"): "io.read_matrix",
    ("io", "write_matrix"): "io.write_matrix",
    ("cli", "main"): "cli.main",
}

FACTORIZATIONS = ("linalg.householder_qr", "linalg.jacobi_svd")

# The one Jacobi caller that reads singular vectors; every other caller
# reads only `.sigma`.
VECTOR_CALLERS = ("leverage.leverage_svd",)

# Per-layer metrics the traced run reports: (name, unit).
CALLS = (
    "linalg.householder_qr", "linalg.jacobi_svd", "linalg.two_norm",
    "linalg.solve_upper", "linalg.gram_residual", "leverage.leverage_qr",
    "leverage.leverage_svd", "leverage.matrix_stats", "angles.principal_angles",
    "generate.random_orthonormal", "perturb.measure", "bounds.rdot_rinv",
    "io.read_matrix", "io.write_matrix",
)
SELF_TIMES = sorted(set(TRACED.values()))
PER_LAYER = (
    [(f"{name}.calls", "count") for name in CALLS]
    + [(f"{name}.self_s", "s") for name in SELF_TIMES]
    + [
        ("linalg.householder_qr.distinct", "count"),
        ("linalg.householder_qr.distinct_frac", "ratio"),
        ("linalg.householder_qr.gflop", "Gflop"),
        ("linalg.householder_qr.gflops", "Gflop/s"),
        ("linalg.jacobi_svd.distinct", "count"),
        ("linalg.jacobi_svd.distinct_frac", "ratio"),
        ("linalg.jacobi_svd.sigma_only_frac", "ratio"),
        ("experiments.bytes_written", "bytes"),
        ("io.bytes", "bytes"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def digest(a):
    """Identity of a matrix argument: hash of its shape and bytes."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    h = hashlib.blake2b(repr(a.shape).encode(), digest_size=16)
    h.update(a.view(np.uint8))
    return h.hexdigest()


def qr_gflop(shape):
    """Computed flop count of a Householder QR, 4mn^2 - 4n^3/3, in Gflop."""
    m, n = shape
    return (4.0 * m * n * n - 4.0 * n**3 / 3.0) / 1e9


def _path_arg(args, kwargs, position):
    return kwargs["path"] if "path" in kwargs else args[position]


class Tracer:
    """Records spans for every call to a function named in TRACED."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, extras dict].
        self.spans = []
        self._open = []  # (span index, function) of spans not yet closed
        self._saved = []  # (setter, original) pairs for remove()

    # -- installation ------------------------------------------------------

    def install(self):
        for module in {module for module, _ in TRACED}:
            importlib.import_module(f"qrlev.{module}")
        modules = {
            name[len("qrlev."):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("qrlev.") and mod is not None
        }
        wrappers = {}
        for (module, fn_name), span_name in TRACED.items():
            original = getattr(modules[module], fn_name)
            wrappers[id(original)] = self._wrap(original, span_name)
        for mod in [sys.modules["qrlev"], *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if callable(item) and id(item) in wrappers:
                            self._set_item(value, key, wrappers[id(item)])
                elif isinstance(value, tuple) and any(
                    callable(v) and id(v) in wrappers for v in value
                ):
                    self._set(
                        mod, attr, tuple(wrappers.get(id(v), v) for v in value)
                    )
        return self

    def _set(self, obj, attr, new):
        self._saved.append((functools.partial(setattr, obj, attr), getattr(obj, attr)))
        setattr(obj, attr, new)

    def _set_item(self, table, key, new):
        self._saved.append((functools.partial(table.__setitem__, key), table[key]))
        table[key] = new

    def remove(self):
        while self._saved:
            setter, original = self._saved.pop()
            setter(original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and open_[-1][1] is fn:
                return fn(*args, **kwargs)  # recursion stays one span
            entered = time.perf_counter()
            extras = {}
            if name in FACTORIZATIONS:
                a = args[0] if args else kwargs["a"]
                extras["digest"] = digest(a)
                if name == "linalg.householder_qr":
                    extras["gflop"] = qr_gflop(np.shape(a))
            elif name == "io.read_matrix":
                extras["bytes"] = os.path.getsize(_path_arg(args, kwargs, 0))
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1][0] if open_ else -1, extras]
            spans.append(span)
            open_.append((index, fn))
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
                if name in ("io.write_matrix", "experiments.emit_csv", "experiments.emit_svg"):
                    path = _path_arg(args, kwargs, 1)
                    if os.path.exists(path):
                        extras["bytes"] = os.path.getsize(path)
                # The tracer's own time on either side of the span (hashing
                # inputs, reading file sizes): summarize() keeps it out of
                # the enclosing span's self time.
                extras["bookkeeping_s"] = (span[1] - entered) + (time.perf_counter() - span[2])

        return traced

    def mark(self):
        """Index to slice spans by: spans[mark_a:mark_b] is one window."""
        return len(self.spans)

    def dump(self, path):
        """Write every span as [name, start, end, parent] JSON rows."""
        with open(path, "w") as fh:
            json.dump([s[:4] for s in self.spans], fh)
            fh.write("\n")


def summarize(spans, start, stop):
    """
    Per-name totals over the window spans[start:stop]: calls, self time
    (without the tracer's bookkeeping), bookkeeping time, distinct
    inputs, computed Gflop, bytes, and sigma-only Jacobi calls.
    A window holds whole top-level spans, so every child of a span in it
    lies in it too.
    """
    child_time = {}
    for name, begin, end, parent, extras in spans[start:stop]:
        covered = (end - begin) + extras.get("bookkeeping_s", 0.0)
        child_time[parent] = child_time.get(parent, 0.0) + covered
    stats = {}
    digests = {}
    for index in range(start, stop):
        name, begin, end, parent, extras = spans[index]
        st = stats.setdefault(name, {
            "calls": 0, "self_s": 0.0, "gflop": 0.0, "bytes": 0, "sigma_only": 0,
            "bookkeeping_s": 0.0,
        })
        st["calls"] += 1
        st["bookkeeping_s"] += extras.get("bookkeeping_s", 0.0)
        st["self_s"] += (end - begin) - child_time.get(index, 0.0)
        if "digest" in extras:
            digests.setdefault(name, set()).add(extras["digest"])
        st["gflop"] += extras.get("gflop", 0.0)
        st["bytes"] += extras.get("bytes", 0)
        if name == "linalg.jacobi_svd" and (
            parent < 0 or spans[parent][0] not in VECTOR_CALLERS
        ):
            st["sigma_only"] += 1
    for name, st in stats.items():
        st["distinct"] = len(digests.get(name, ()))
    return stats


def per_layer_metrics(spans, setup_window, pass_windows):
    """
    Per-module metrics for one set-up plus one pass: spans recorded
    while the inputs were built count once, spans of the traced passes
    are averaged per pass. trace.overhead_s is the tracer's own time per
    traced pass. Returns {name: value} over PER_LAYER, minus the
    trace.wall_s entry that the caller adds.
    """
    totals = {}
    bookkeeping_s = 0.0

    def add(stats, weight):
        for name, st in stats.items():
            acc = totals.setdefault(name, {})
            for field, value in st.items():
                acc[field] = acc.get(field, 0.0) + weight * value

    add(summarize(spans, *setup_window), 1.0)
    for window in pass_windows:
        stats = summarize(spans, *window)
        add(stats, 1.0 / len(pass_windows))
        bookkeeping_s += sum(st["bookkeeping_s"] for st in stats.values()) / len(pass_windows)

    def get(name, field):
        return totals.get(name, {}).get(field, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.calls": get(name, "calls") for name in CALLS}
    out.update({f"{name}.self_s": get(name, "self_s") for name in SELF_TIMES})
    for name in FACTORIZATIONS:
        out[f"{name}.distinct"] = get(name, "distinct")
        out[f"{name}.distinct_frac"] = ratio(get(name, "distinct"), get(name, "calls"))
    qr = "linalg.householder_qr"
    out[f"{qr}.gflop"] = get(qr, "gflop")
    out[f"{qr}.gflops"] = ratio(get(qr, "gflop"), get(qr, "self_s"))
    out["linalg.jacobi_svd.sigma_only_frac"] = ratio(
        get("linalg.jacobi_svd", "sigma_only"), get("linalg.jacobi_svd", "calls")
    )
    out["experiments.bytes_written"] = sum(
        get(f"experiments.{fn}", "bytes") for fn in ("emit_csv", "emit_svg")
    )
    out["io.bytes"] = sum(get(f"io.{fn}", "bytes") for fn in ("read_matrix", "write_matrix"))
    out["trace.spans"] = sum(acc["calls"] for acc in totals.values())
    out["trace.overhead_s"] = bookkeeping_s
    return out
