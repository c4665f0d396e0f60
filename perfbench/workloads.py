"""
The benchmark's workloads. Each builds its inputs from a seed, hands
the runner a fixed list of operations for one pass, and checks every
operation's output after the pass, outside the timed region.

    figures         run_figure for fig1-fig5 (the paper's reproduction
                    product); repeated factorizations of one matrix show
                    here.
    acceptance      acceptance.run_all: the 200-matrix ensemble, mostly
                    small pure-Python Jacobi calls; the `qrlev check` path.
    levscores_tall  leverage_qr on tall stepped matrices, m = 10 000 to
                    40 000, each factored exactly once per pass.
    cli_roundtrip   cli.main for gen, perturb, bounds and levscores on
                    text files; the only workload that exercises io and cli.

Functions of the package are looked up through their module at call
time, so that the tracer's rebinding takes effect.
"""

import contextlib
import functools
import hashlib
import io as _io
import json
import os

import numpy as np

UNIT_ROUNDOFF = 2.0**-53

# At this seed the figure CSVs must equal the committed demos/out/<figure>.csv.
GOLDEN_SEED = 42
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "demos", "out")


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """
    Base: subclasses set `name` and implement operations() and
    output(); check() compares each output with the first one seen for
    the same operation, so outputs must repeat across passes.
    """

    name = ""
    # One untimed pass before timing, so lazy imports and first calls are paid.
    warm_up = True

    def __init__(self, qrlev, seed, workdir):
        self.qrlev = qrlev
        self.seed = seed
        self.reference = {}

    def operations(self, pass_dir):
        """[(label, thunk)] for one pass; thunks write under pass_dir."""
        raise NotImplementedError

    def output(self, label, result, pass_dir):
        """The part of an operation's result that check() compares."""
        return result

    def check(self, label, output):
        """None when the output is correct, else the reason it is not."""
        first = self.reference.setdefault(label, output)
        if first != output:
            return "output differs from the first pass"
        return None

    def detail(self):
        """Workload-specific facts for the report."""
        return {}


class Figures(Workload):
    name = "figures"

    def __init__(self, qrlev, seed, workdir):
        super().__init__(qrlev, seed, workdir)
        self.golden = {}
        if seed == GOLDEN_SEED:
            self.golden = {
                figure: sha256_file(os.path.join(GOLDEN_DIR, f"{figure}.csv"))
                for figure in qrlev.experiments.FIGURES
            }

    def operations(self, pass_dir):
        return [
            (figure, functools.partial(self._run, figure, pass_dir))
            for figure in self.qrlev.experiments.FIGURES
        ]

    def _run(self, figure, pass_dir):
        experiments = self.qrlev.experiments
        cfg = experiments.ExperimentConfig(figure=figure, seed=self.seed, output_dir=pass_dir)
        experiments.run_figure(cfg, assert_bounds=True)

    def output(self, label, result, pass_dir):
        return sha256_file(os.path.join(pass_dir, f"{label}.csv"))

    def check(self, label, output):
        if self.seed == GOLDEN_SEED and output != self.golden[label]:
            return f"{label}.csv differs from the committed demos/out/{label}.csv"
        return super().check(label, output)


class Acceptance(Workload):
    """
    One operation per pass: run_all(seed). At the default seed exactly
    criterion 8 fails: its accuracy-loss clause is red by design. The
    figure-bracket criteria 7 and 8 are stochastic and validated at the
    default seed only (see acceptance.py), so at other seeds their
    outcome is reported but not required; every other criterion must
    pass at every seed. Over seeds 0-79 criterion 7 fails at 0 and 12.
    """

    name = "acceptance"
    EXPECTED_FAILING = (8,)
    BRACKETS = (7, 8)
    # `qrlev check` runs run_all once per process, so the cold pass is the
    # one users see; a warm-up would also double the cost of a run.
    warm_up = False

    def __init__(self, qrlev, seed, workdir):
        super().__init__(qrlev, seed, workdir)
        self.criteria_attempted = 0
        self.criteria_failed = 0

    def operations(self, pass_dir):
        return [("run_all", self._run)]

    def _run(self):
        return self.qrlev.acceptance.run_all(self.seed)

    def output(self, label, result, pass_dir):
        self.criteria_attempted += len(result)
        failing = tuple(r.number for r in result if not r.passed)
        self.criteria_failed += len(failing)
        return failing

    def detail(self):
        return {"criteria_failed_frac": self.criteria_failed / self.criteria_attempted}

    def check(self, label, output):
        if self.seed == self.qrlev.acceptance.DEFAULT_SEED:
            if output != self.EXPECTED_FAILING:
                return f"failing criteria {output}, expected {self.EXPECTED_FAILING}"
        elif set(output) - set(self.BRACKETS):
            return f"failing criteria {output}; only {self.BRACKETS} may fail at seed {self.seed}"
        return super().check(label, output)


class LevscoresTall(Workload):
    """
    leverage_qr on stepped matrices: four row blocks scaled 1, 1e2, 1e3,
    1e4, n = 25, one Gaussian and one randsvd (kappa 1e6) core at each
    size. The sizes are fixed so every seed does the same work; the seed
    draws the entries.
    """

    name = "levscores_tall"
    N = 25
    ROWS = (10_000, 20_000, 30_000, 40_000)
    CORES = ("gaussian", "randsvd")

    def __init__(self, qrlev, seed, workdir):
        super().__init__(qrlev, seed, workdir)
        generate = qrlev.generate
        shapes = [(m, core) for m in self.ROWS for core in self.CORES]
        rngs = np.random.SeedSequence(seed).spawn(len(shapes))
        self.matrices = {}
        for (m, core), child in zip(shapes, rngs):
            spec = generate.GenSpec(
                m=m,
                n=self.N,
                block_sizes=[m // 4] * 4,
                block_scales=[1.0, 1e2, 1e3, 1e4],
                kappa=1e6 if core == "randsvd" else 1.0,
                sv_mode=core,
            )
            self.matrices[f"{m}x{self.N}-{core}"] = generate.generate(
                spec, np.random.default_rng(child)
            )
        self.tolerance = {}

    def operations(self, pass_dir):
        return [(label, functools.partial(self._run, label)) for label in self.matrices]

    def _run(self, label):
        return self.qrlev.leverage.leverage_qr(self.matrices[label])

    def detail(self):
        l3 = l3_bytes()
        return {
            "matrices": {
                label: {
                    "shape": list(a.shape),
                    "mb": a.nbytes / 1e6,
                    "of_l3": a.nbytes / l3 if l3 else None,
                }
                for label, a in self.matrices.items()
            }
        }

    def check(self, label, output):
        if label not in self.tolerance:
            self.tolerance[label] = reference_scores(self.matrices[label])
        ref, tol = self.tolerance[label]
        return scores_mismatch(output, ref, tol)


def l3_bytes():
    """Size of the last-level cache, or None where the system does not say."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}
    return int(text[:-1]) * scale[text[-1]] if text[-1:] in scale else None


def reference_scores(a):
    """
    Leverage scores from numpy.linalg.qr, with the per-index tolerance a
    second computation may differ by. Each side is the exact leverage of
    a matrix within relative two-norm distance eps = m n u of `a`, so by
    the paper's T2_gen bound each lies within
    (2 sqrt(l (1 - l)) + kappa2 eps) kappa2 eps of the exact score l, and
    the two within twice that. kappa2 is taken from the reference R.
    Returns (scores, tolerance); tolerance is None when T2_gen's
    hypothesis kappa2 eps <= 1/2 fails and the bound says nothing.
    """
    m, n = a.shape
    q, r = np.linalg.qr(a)
    sigma = np.linalg.svd(r, compute_uv=False)
    kappa2 = sigma[0] / sigma[-1]
    eps = m * n * UNIT_ROUNDOFF
    lev = np.einsum("ij,ij->i", q, q)
    ke = kappa2 * eps
    if not ke <= 0.5:
        return lev, None
    clipped = np.clip(lev, 0.0, 1.0)
    return lev, 2.0 * ke * (2.0 * np.sqrt(clipped * (1.0 - clipped)) + ke)


def scores_mismatch(scores, ref, tol):
    """None when scores lie within tol of ref at every index."""
    if tol is None:
        return "T2_gen hypothesis kappa2 * eps <= 1/2 fails; no tolerance"
    scores = np.asarray(scores)
    if scores.shape != ref.shape:
        return f"scores have shape {scores.shape}, reference {ref.shape}"
    excess = np.abs(scores - ref) - tol
    bad = ~(excess <= 0.0)
    if bad.any():
        j = int(np.argmax(np.where(np.isnan(excess), np.inf, excess)))
        return (
            f"{int(bad.sum())} scores outside the T2_gen tolerance "
            f"(index {j}: {scores[j]!r} vs {ref[j]!r}, tolerance {tol[j]:.3e})"
        )
    return None


class CliRoundtrip(Workload):
    """gen -> perturb -> bounds t3_1 -> levscores through cli.main, on
    text files in the pass directory. Each subcommand must exit 0 and
    write the same bytes every pass."""

    name = "cli_roundtrip"
    # Files each subcommand writes into the pass directory.
    OUTPUTS = {
        "gen": ("a.txt",),
        "perturb": ("delta.txt", "metrics.json"),
        "bounds": ("bounds.csv",),
        "levscores": ("lev.csv",),
    }

    def __init__(self, qrlev, seed, workdir):
        super().__init__(qrlev, seed, workdir)
        self.config = os.path.join(workdir, "perturb.json")
        with open(self.config, "w") as fh:
            json.dump({"kind": "normwise_fro", "eps": 1e-8}, fh)

    def operations(self, pass_dir):
        f = functools.partial(os.path.join, pass_dir)
        seed = str(self.seed)
        commands = [
            ("gen", ["gen", "--preset", "stepped", "--seed", seed, "--out", f("a.txt")]),
            ("perturb", ["perturb", f("a.txt"), "--config", self.config, "--seed", seed,
                         "--out", f("delta.txt"), "--metrics-out", f("metrics.json")]),
            ("bounds", ["bounds", "t3_1", "--matrix", f("a.txt"), "--delta", f("delta.txt"),
                        "--out", f("bounds.csv")]),
            ("levscores", ["levscores", f("a.txt"), "--out", f("lev.csv")]),
        ]
        return [(label, functools.partial(self._run, argv)) for label, argv in commands]

    def _run(self, argv):
        stdout = _io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.qrlev.cli.main(argv)
        return code, stdout.getvalue()

    def output(self, label, result, pass_dir):
        code, stdout = result
        h = hashlib.sha256(stdout.replace(pass_dir, "<pass>").encode())
        for name in self.OUTPUTS[label]:
            path = os.path.join(pass_dir, name)
            with open(path, "rb") as fh:
                h.update(fh.read())
        return code, h.hexdigest()

    def check(self, label, output):
        code, _ = output
        if code != 0:
            return f"qrlev {label} exited {code}"
        return super().check(label, output)


WORKLOADS = {w.name: w for w in (Figures, Acceptance, LevscoresTall, CliRoundtrip)}
