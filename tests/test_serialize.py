"""CSV tables: the array formatter against the per-cell formatter.

``write_csv`` formats whole blocks of values with numpy; the per-cell
path (``format_float`` per value, quotes stripped) stays here as the
reference, and the two must agree byte for byte.  The sweeps compare
single values against ``'%.17g' %`` where exact rounding is hardest.
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


def column_text(tmp_path, values) -> list:
    """The cells of a one-column table as ``write_csv`` writes them."""
    path = tmp_path / "column.csv"
    serialize.write_csv(path, ["x"], np.asarray(values, float)[:, None])
    return path.read_text(encoding="utf-8").split("\n")[1:-1]


def sweep_values():
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64)
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    bounds = np.array([1e-5, 1e-4, 1e16, 1e17])
    big = 10.0 ** rng.uniform(18.0, 300.0, 200)
    return {
        "bit patterns": bits.view(np.float64),
        "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
        "odd dyadics": np.append(np.ldexp(
            2.0 * rng.integers(0, 2 ** 40, 20000) + 1.0,
            -rng.integers(1, 80, 20000)), 2.0 ** -25),
        "integers from 1e18": (big[:, None] + np.spacing(big)[:, None]
                               * np.arange(100)).ravel(),
        "powers of ten": np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]),
        "format boundaries": np.concatenate(
            [bounds, np.nextafter(bounds, 0), np.nextafter(bounds, np.inf)]),
        "specials": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                              -5e-324, 2.225073858507201e-308, 1e-310,
                              2.0 ** -25, 0.1]),
    }


def test_cells_match_percent_format(tmp_path):
    for name, values in sweep_values().items():
        values = np.concatenate([values, -values])
        expected = ["%.17g" % v for v in values.tolist()]
        assert column_text(tmp_path, values) == expected, name


def test_guard_takes_ties_unsettled_decades_and_out_of_range_values(
        tmp_path, monkeypatch):
    tie = 2.0 ** -25                    # 2.98023223876953125e-08 exactly
    assert serialize._exact_digits(np.array([tie]))[2].all()
    assert column_text(tmp_path, [tie]) == ["2.9802322387695312e-08"]

    scaled, calls = serialize._scaled, []

    def first_decade_off_by_two(mag, e):
        calls.append(e)
        return scaled(mag, e - 2 if len(calls) == 1 else e)

    monkeypatch.setattr(serialize, "_scaled", first_decade_off_by_two)
    assert serialize._exact_digits(np.array([0.1]))[2].all()
    calls.clear()
    assert column_text(tmp_path, [0.1, 3.0]) == ["0.10000000000000001", "3"]
    assert len(calls) == 2
    monkeypatch.undo()
    for value in (1e-300, 1e300, 5e-324):
        assert not serialize._TINY <= value <= serialize._HUGE
    assert column_text(tmp_path, [1e-300, 1e300, 5e-324]) == \
        ["1e-300", "1.0000000000000001e+300", "4.9406564584124654e-324"]


def test_write_csv_edge_shapes_match_per_cell_formatter(tmp_path):
    rng = np.random.default_rng(20)
    cols = 7
    step = serialize._BLOCK // cols
    for rows, n_cols in ((0, cols), (5, 0), (1, cols),
                         (3 * step + 17, cols)):
        table = awkward_values(rng, max(rows * n_cols, 15))[:rows * n_cols]
        table = table.reshape(rows, n_cols)
        header = [f"c{i}" for i in range(n_cols)]
        path = tmp_path / "table.csv"
        serialize.write_csv(path, header, table)
        assert path.read_text(encoding="utf-8") == \
            per_cell_csv(header, table.tolist()), (rows, n_cols)
