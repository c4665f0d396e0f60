"""
Command-line interface.

Subcommands
-----------
gen        emit a matrix from a preset or a GenSpec JSON config
           (exactly one of --preset and --config)
perturb    emit a perturbation of a matrix file plus its measured
           magnitudes
levscores  leverage scores of a matrix file
bounds     evaluate a named bound for a matrix/perturbation pair
           (t3_4 takes only delta = D a, a row scaling of the matrix)
figure     run one figure experiment and emit CSV + SVG
check      run the full acceptance suite (nonzero exit on failure)

Each subcommand accepts only the shared flags (--seed, --out,
--config, --format) that it reads.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import acceptance
from .bounds import (
    bound_c1,
    bound_t1,
    bound_t2,
    bound_t3_1,
    bound_t3_2,
    bound_t3_3,
    bound_t3_4,
    row_scaling_eta,
)
from .angles import principal_angles
from .experiments import (
    BoundViolationError,
    ExperimentConfig,
    FigurePanel,
    emit_csv,
    run_figure,
)
from .generate import GenSpec, generate, stepped_spec
from .io import format_float, read_matrix, write_matrix
from .leverage import full_rank_qr, leverage_from_basis, leverage_qr
from .linalg import blas_threads
from .perturb import make_perturbation, measure

# Preset name -> sv_mode of the stepped recipe.
GEN_PRESETS = {"stepped": "orthonormal", "stepped-illconditioned": "randsvd"}

BOUND_NAMES = ("t1", "c1", "t2", "t3_1", "t3_2", "t3_3", "t3_4")


def _add_common(parser, *flags, required=(), out_default=None, seed_default=0):
    """Add the shared flags a subcommand reads; each is spelled only here."""
    specs = {
        "--seed": dict(
            type=int, default=seed_default, help="RNG seed (default %(default)s)"
        ),
        "--out": dict(default=out_default, help="output path or directory"),
        "--config": dict(help="JSON config file"),
        "--format": dict(choices=("csv", "json"), default="csv", help="report format"),
    }
    for flag in flags:
        parser.add_argument(flag, required=flag in required, **specs[flag])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qrlev",
        description="Leverage scores via QR, perturbation generators, and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a matrix")
    recipe = p.add_mutually_exclusive_group(required=True)
    recipe.add_argument("--preset", choices=sorted(GEN_PRESETS), help="built-in recipe")
    _add_common(recipe, "--config")
    _add_common(p, "--seed", "--out", out_default="matrix.txt")

    p = sub.add_parser("perturb", help="generate a perturbation of a matrix file")
    p.add_argument("matrix", help="input matrix file")
    _add_common(
        p, "--seed", "--out", "--config", required=("--config",), out_default="delta.txt"
    )
    p.add_argument("--metrics-out", help="where to write measured magnitudes")

    p = sub.add_parser("levscores", help="leverage scores of a matrix file")
    p.add_argument("matrix", help="input matrix file")
    _add_common(p, "--out", "--format")

    p = sub.add_parser("bounds", help="evaluate a bound for matrix + perturbation files")
    p.add_argument("name", choices=BOUND_NAMES, help="bound to evaluate")
    p.add_argument("--matrix", required=True, help="base matrix file")
    p.add_argument("--delta", required=True, help="perturbation file")
    _add_common(p, "--out", "--format")

    p = sub.add_parser("figure", help="run a figure experiment")
    p.add_argument("number", type=int, choices=range(1, 6), help="figure number")
    _add_common(p, "--seed", "--out", out_default=".")
    p.add_argument(
        "--no-assert",
        action="store_true",
        help="skip the bound-holds invariant before emitting",
    )

    p = sub.add_parser("check", help="run the acceptance suite")
    _add_common(p, "--seed", seed_default=acceptance.DEFAULT_SEED)
    return parser


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_gen(args):
    if args.preset:
        spec = stepped_spec(GEN_PRESETS[args.preset])
    else:
        spec = GenSpec.from_dict(_load_json(args.config))
    write_matrix(generate(spec, args.seed), args.out)
    print(args.out)
    return 0


def _write_report(text, path):
    """Write a report to path and print the path, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _json_column(values):
    """The values as a list, with null where the CSV writes an empty field (NaN)."""
    # x != x holds for NaN alone.
    return [None if x != x else x for x in values.tolist()]


def cmd_perturb(args):
    a = read_matrix(args.matrix)
    delta = make_perturbation(_load_json(args.config), a, args.seed)
    metrics = measure(full_rank_qr(a), delta)
    write_matrix(delta, args.out)
    print(args.out)
    payload = {
        "eps_two": metrics.eps_two,
        "eps_fro": metrics.eps_fro,
        "eps_two_perp": metrics.eps_two_perp,
        "eps_fro_perp": metrics.eps_fro_perp,
        "eps_row_max": float(np.nanmax(metrics.eps_row)),
        "eps_row_perp_max": float(np.nanmax(metrics.eps_row_perp)),
    }
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    _write_report(text, args.metrics_out)
    return 0


def cmd_levscores(args):
    lev = leverage_qr(read_matrix(args.matrix))
    if args.format == "json":
        text = json.dumps(lev.tolist(), allow_nan=False) + "\n"
    else:
        text = "j,ell\n" + "".join(
            f"{j},{format_float(x)}\n" for j, x in enumerate(lev.tolist())
        )
    _write_report(text, args.out)
    return 0


def cmd_bounds(args):
    a = read_matrix(args.matrix)
    delta = read_matrix(args.delta)
    if delta.shape != a.shape:
        raise ValueError(
            f"{args.delta} is {delta.shape[0]}x{delta.shape[1]} but "
            f"{args.matrix} is {a.shape[0]}x{a.shape[1]}"
        )
    f = full_rank_qr(a)
    lev = leverage_from_basis(f.q)
    q_tilde = full_rank_qr(a + delta).q
    lev_tilde = leverage_from_basis(q_tilde)

    name = args.name
    if name == "t1":
        reports = [bound_t1(lev, principal_angles(f.q, q_tilde))]
    elif name == "c1":
        reports = [bound_c1(lev, principal_angles(f.q, q_tilde))]
    elif name == "t3_4":
        eta = row_scaling_eta(a, delta)
        reports = [bound_t3_4(eta, a.shape[1], kappa2=f.stats.kappa2)]
    else:
        stats = f.stats
        metrics = measure(f, delta)
        if name == "t2":
            reports = list(bound_t2(lev, stats, metrics))
        elif name == "t3_1":
            reports = [bound_t3_1(lev, stats, metrics)]
        elif name == "t3_2":
            reports = [bound_t3_2(stats, metrics)]
        else:
            reports = [bound_t3_3(stats, metrics)]

    panels = [FigurePanel.from_report(r.theorem, lev, lev_tilde, r) for r in reports]
    if args.format == "json":
        records = [
            {"theorem": p.theorem, "j": j, "ell": ell, "observed": obs, "bound": bnd}
            for p in panels
            for j, (ell, obs, bnd) in enumerate(
                zip(*(_json_column(c) for c in (p.ell, p.observed, p.bound)))
            )
        ]
        _write_report(json.dumps(records, allow_nan=False) + "\n", args.out)
    else:
        out = args.out or "bounds.csv"
        emit_csv(panels, out)
        print(out)
    return 0


def cmd_figure(args):
    cfg = ExperimentConfig(
        figure=f"fig{args.number}", seed=args.seed, output_dir=args.out or "."
    )
    _, csv_path, svg_path = run_figure(cfg, assert_bounds=not args.no_assert)
    print(csv_path)
    print(svg_path)
    return 0


def cmd_check(args):
    results = acceptance.run_all(seed=args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number:2d} [{status}] {res.name}: {res.detail}")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


COMMANDS = {
    "gen": cmd_gen,
    "perturb": cmd_perturb,
    "levscores": cmd_levscores,
    "bounds": cmd_bounds,
    "figure": cmd_figure,
    "check": cmd_check,
}


def _configure_logging():
    """Log to stderr at the level QRLEV_LOGLEVEL names (default INFO)."""
    level = os.environ.get("QRLEV_LOGLEVEL", "INFO")
    try:
        logging.basicConfig(
            level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
        )
    except ValueError as exc:
        raise ValueError(f"QRLEV_LOGLEVEL: {exc}") from None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        with blas_threads(1):
            return COMMANDS[args.command](args)
    except (ValueError, BoundViolationError, OSError) as exc:
        print(f"qrlev {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
