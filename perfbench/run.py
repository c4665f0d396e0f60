#!/usr/bin/env python3
"""
qrlev benchmark.

One workload per process:

    python3 perfbench/run.py --workload figures --seed 42 --seconds 20 --trace 0

prints a human-readable report and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the
per-module ones, recorded by wrapping the package's public functions
(see tracer.py), and the spans are written to perfbench/out/.

Every workload, untraced and then traced, in one table:

    python3 perfbench/run.py --workload all

The benchmark imports qrlev from src/ next to this directory and
nowhere else, and writes only under perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, l3_bytes  # noqa: E402

# Fresh interpreters timed from start to inputs ready; setup_s is their median.
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PACKAGE_MODULES = (
    "linalg", "leverage", "angles", "generate", "perturb", "bounds",
    "experiments", "acceptance", "io", "svgplot", "cli",
)


def import_package():
    """
    Import qrlev from this checkout's src/, or exit nonzero. Returns a
    namespace of its modules (the package itself rebinds `generate` to
    the function of that name).
    """
    init = os.path.join(SRC, "qrlev", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"run.py: no qrlev sources at {init}")
    sys.path.insert(0, SRC)
    import importlib

    qrlev = importlib.import_module("qrlev")
    if os.path.realpath(qrlev.__file__) != os.path.realpath(init):
        sys.exit(f"run.py: imported qrlev from {qrlev.__file__}, not {init}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"qrlev.{m}") for m in PACKAGE_MODULES}
    )


# -- environment --------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


# (thread-count getter, config getter) as the OpenBLAS builds name them.
BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_libraries():
    """[(library file, config string, thread count)] of loaded OpenBLAS builds."""
    import ctypes

    found = []
    paths = sorted({
        line.split()[-1]
        for line in _read("/proc/self/maps").splitlines()
        if "openblas" in line.lower() and ".so" in line
    })
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads, config in BLAS_SYMBOLS:
            if hasattr(lib, threads) and hasattr(lib, config):
                getattr(lib, config).restype = ctypes.c_char_p
                found.append((
                    os.path.basename(path),
                    getattr(lib, config)().decode(),
                    getattr(lib, threads)(),
                ))
                break
    return found


def environment(argv, seeds):
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo")
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            )
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    blas = blas_libraries()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": [f"{lib}: {config}" for lib, config, _ in blas],
        "blas_threads": [threads for _, _, threads in blas],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "(unset)"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_bytes": l3_bytes(),
        "git_sha": sha,
        "seeds": seeds,
        "command": shlex.join([sys.executable, *argv]),
    }


# -- one workload -------------------------------------------------------------


def probe_setup(args):
    """Child mode: import, build the inputs, report ready, exit."""
    qrlev = import_package()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        WORKLOADS[args.workload](qrlev, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return samples


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Run:
    """Timed passes of one workload plus the checks on their outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def one_pass(self, workdir, tracer=None):
        """Run every operation once; return (wall_s, cpu_s, {label: seconds})."""
        pass_dir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
        ops = self.workload.operations(pass_dir)
        results = []
        if tracer is not None:
            tracer.install()
        try:
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            for label, thunk in ops:
                start = time.perf_counter()
                try:
                    result, error = thunk(), None
                except Exception:
                    result, error = None, traceback.format_exc(limit=3)
                results.append((label, result, error, time.perf_counter() - start))
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
        finally:
            if tracer is not None:
                tracer.remove()
        for label, result, error, _ in results:
            self.attempted += 1
            if error is None:
                try:
                    output = self.workload.output(label, result, pass_dir)
                    error = self.workload.check(label, output)
                except Exception:
                    error = traceback.format_exc(limit=3)
            if error is not None:
                self.failures.append(f"{label}: {error}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        return wall, cpu, {r[0]: r[3] for r in results}


def run_workload(args):
    qrlev = import_package()
    # Probes go first, so the run itself times nothing while they start.
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    env = environment(sys.argv, [args.seed])
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    # acceptance criterion 13 writes through tempfile; keep it in the checkout.
    tempfile.tempdir = workdir
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
            setup_start = tracer.mark()
        workload = WORKLOADS[args.workload](qrlev, args.seed, workdir)
        if tracer is not None:
            setup_window = (setup_start, tracer.mark())
            tracer.remove()

        run = Run(workload)
        if workload.warm_up:
            run.one_pass(workdir)  # fills caches, sets the outputs to repeat
        plain, traced, op_times, windows = [], [], [], []
        # Passes run back to back while the next one, judged by the last,
        # still ends within --seconds; at least one always runs. A trace run
        # alternates untraced and traced passes.
        start = time.perf_counter()
        last = 0.0
        while not plain or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            wall, cpu, ops = run.one_pass(workdir)
            plain.append((wall, cpu))
            op_times.append(ops)
            if tracer is not None:
                first = tracer.mark()
                traced.append(run.one_pass(workdir, tracer)[0])
                windows.append((first, tracer.mark()))
            last = time.perf_counter() - began
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = statistics.median(w for w, _ in plain)
    detail = {
        "workload": args.workload,
        "env": env,
        "pass_walls": [w for w, _ in plain],
        "op_ms": {
            label: 1000.0 * statistics.median(ops[label] for ops in op_times)
            for label in op_times[0]
        },
        "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        **workload.detail(),
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "cpu_s": statistics.median(c for _, c in plain),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
        detail["samples"] = {
            "setup_s": len(setup_samples), "wall_s": len(plain), "cpu_s": len(plain),
            "peak_rss_mb": 1,
        }
    else:
        values = tracing.per_layer_metrics(tracer.spans, setup_window, windows)
        values["trace.wall_s"] = statistics.median(traced)
        detail["traced_minus_untraced_s"] = values["trace.wall_s"] - wall_s
        units = tracing.PER_LAYER
        detail["samples"] = dict.fromkeys(values, len(windows))
        span_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(span_path)
        detail["spans_file"] = os.path.relpath(span_path, ROOT)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    report(detail, metrics)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))


def report(detail, metrics):
    for key, value in detail["env"].items():
        print(f"env {key}: {value}")
    for label, info in detail.get("matrices", {}).items():
        of_l3 = f"{info['of_l3']:.2f} x L3" if info["of_l3"] else "L3 size unknown"
        print(f"matrix {label}: {info['mb']:.1f} MB, {of_l3}")
    for line in detail["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{detail['workload']:>15} {name:<42} {m['value']:>14.6g} {m['unit']:<8} "
              f"n={detail['samples'][name]}")


# -- every workload -----------------------------------------------------------


def run_child(workload, seed, seconds, trace):
    """Run one workload in its own process; return (result, detail)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"run.py: {workload} seed {seed} trace {trace} exited {proc.returncode}")
    detail = next(line for line in lines if line.startswith("detail: "))
    return json.loads(lines[-1]), json.loads(detail[len("detail: "):])


def run_all(args):
    """Each workload untraced and traced, in child processes; one table."""
    rows = []
    results = {}
    for workload in WORKLOADS:
        result, detail = run_child(workload, args.seed, args.seconds, 0)
        verdict = "correct" if result["correct"] else "WRONG"
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"], detail["samples"][name], verdict))
        rows.append((workload, "failed_frac", detail["failed_frac"], "ratio",
                     result["attempted"], verdict))
        if "criteria_failed_frac" in detail:
            rows.append((workload, "criteria_failed_frac", detail["criteria_failed_frac"],
                         "ratio", "", verdict))
        traced, traced_detail = run_child(workload, args.seed, args.seconds, 1)
        traced_verdict = "correct" if traced["correct"] else "WRONG"
        passes = traced_detail["samples"]["trace.overhead_s"]
        rows.append((workload, "tracer_bookkeeping_s",
                     traced["metrics"]["trace.overhead_s"]["value"], "s", passes,
                     traced_verdict))
        rows.append((workload, "traced_minus_untraced_s",
                     traced_detail["traced_minus_untraced_s"], "s", passes, traced_verdict))
        results[workload] = {"untraced": result, "traced": traced}
    env = dict(detail["env"], command=shlex.join([sys.executable, *sys.argv]))
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"{'workload':<15} {'metric':<22} {'value':>12} {'unit':<6} {'n':>5}  verdict")
    for workload, name, value, unit, n, verdict in rows:
        print(f"{workload:<15} {name:<22} {value:>12.6g} {unit:<6} {n!s:>5}  {verdict}")
    print(json.dumps(results))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        probe_setup(args)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
