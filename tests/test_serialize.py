"""CSV tables: the row formatter against the per-cell formatter.

``write_csv`` formats each row with one ``%`` operation; the per-cell
path it replaced (``format_float`` per value, quotes stripped) stays
here as the reference, and the two must agree byte for byte.
"""

import numpy as np

from pidestab import serialize
from pidestab.simulate import Trajectory


def per_cell_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(serialize.format_float(v).strip('"')
                              for v in row))
    return "\n".join(lines) + "\n"


def awkward_values(rng, size):
    """Random magnitudes from subnormal to near overflow, plus specials."""
    mags = 10.0 ** rng.uniform(-320.0, 308.0, size)
    values = rng.choice([-1.0, 1.0], size) * mags
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0,
               -3.0, 123456789.0, 2.0 ** 53 + 2.0, 1.0 / 3.0]
    values[:len(special)] = special
    return values


def test_write_csv_matches_per_cell_formatter(tmp_path):
    rng = np.random.default_rng(17)
    table = awkward_values(rng, 60 * 7).reshape(60, 7)
    header = [f"c{i}" for i in range(7)]
    path = tmp_path / "table.csv"
    serialize.write_csv(path, header, table)
    assert path.read_text(encoding="utf-8") == \
        per_cell_csv(header, table.tolist())


def test_trajectory_tables_match_per_cell_layout(tmp_path):
    rng = np.random.default_rng(18)
    n, k = 40, 3
    grid = np.linspace(0.0, 2.0, n)
    alpha = awkward_values(rng, n * k).reshape(n, k)
    alpha = np.clip(alpha, -1e150, 1e150)     # norms square alpha
    traj = Trajectory(grid=grid, alpha=alpha,
                      z=rng.normal(size=(n, k)), lambdas=[1.0, 4.0, 9.0],
                      controls=rng.normal(size=(n, 2)),
                      control_labels=("v_1", "v_2"))
    norms = traj.norms
    keys = ("y", "a_alpha_minus_half", "a_alpha")

    serialize.trajectory_csv(tmp_path / "trajectory.csv", traj)
    header = (["t", "alpha_1", "alpha_2", "alpha_3", "z_1", "z_2", "z_3",
               "v_1", "v_2"]
              + ["norm_y", "norm_a_alpha_minus_half", "norm_a_alpha"])
    rows = [[grid[i], *alpha[i], *traj.z[i], *traj.controls[i],
             *(norms[key][i] for key in keys)] for i in range(n)]
    assert (tmp_path / "trajectory.csv").read_text(encoding="utf-8") == \
        per_cell_csv(header, rows)

    serialize.decay_curve_csv(tmp_path / "decay_curve.csv", traj)
    header = ["t", "log_norm_y", "log_norm_a_alpha_minus_half",
              "log_norm_a_alpha"]
    logs = [np.log(np.maximum(norms[key], 1e-300)) for key in keys]
    rows = [[grid[i]] + [log[i] for log in logs] for i in range(n)]
    assert (tmp_path / "decay_curve.csv").read_text(encoding="utf-8") == \
        per_cell_csv(header, rows)
