"""Run all five figure experiments and emit CSV + SVG into demos/out.

Equivalent to `qrlev figure N --seed 42 --out demos/out` for N in
1..5; every run re-checks its bound-holds invariant before writing.
"""

import logging
import os

from qrlev.experiments import ExperimentConfig, run_figure

logging.basicConfig(level="INFO", format="%(message)s")

SEED = 42
out_dir = os.path.join(os.path.dirname(__file__), "out")

for number in range(1, 6):
    cfg = ExperimentConfig(figure=f"fig{number}", seed=SEED, output_dir=out_dir)
    panels, csv_path, svg_path = run_figure(cfg)
    n_rows = sum(len(p.ell) for p in panels)
    print(f"fig{number}: {n_rows} rows -> {csv_path}, {svg_path}")
