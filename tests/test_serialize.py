"""CSV tables and JSON documents against per-value reference formatters.

``write_csv`` and ``dumps`` format all their floats with numpy; the
per-value routes stay here as references, and the program must agree
with them byte for byte.  For CSV that is ``format_float`` per cell,
quotes stripped; for JSON it is a placeholder per float, then
``json.dumps(indent=2)``, then ``'%.17g' %`` of each value.  The sweeps
compare single values against ``'%.17g' %`` where exact rounding and
layout are hardest.
"""

import json
import re

import numpy as np
import pytest

from pidestab import serialize
from pidestab.simulate import Trajectory


def per_cell_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(serialize.format_float(v).strip('"')
                              for v in row))
    return "\n".join(lines) + "\n"


def reference_dumps(obj) -> str:
    """JSON text by the per-value route: every float becomes a
    placeholder string, ``json.dumps(indent=2)`` lays the document out,
    and each placeholder is replaced by ``'%.17g' %`` of its value
    (nan and the infinities as the strings "nan", "inf", "-inf")."""
    tokens = []

    def convert(o):
        if isinstance(o, bool):
            return o
        if isinstance(o, (float, np.floating)):
            v = float(o)
            tokens.append('"%r"' % v if not np.isfinite(v) else "%.17g" % v)
            return f"__f17g_{len(tokens) - 1}__"
        if isinstance(o, (int, np.integer)):
            return int(o)
        if isinstance(o, (complex, np.complexfloating)):
            return [convert(o.real), convert(o.imag)]
        if isinstance(o, np.ndarray):
            return [convert(v) for v in o.tolist()] if o.ndim > 0 \
                else convert(o.item())
        if isinstance(o, dict):
            return {str(k): convert(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [convert(v) for v in o]
        if o is None or isinstance(o, str):
            return o
        raise TypeError(f"cannot serialize {type(o).__name__}")

    text = json.dumps(convert(obj), indent=2)
    return re.sub(r'"__f17g_(\d+)__"', lambda m: tokens[int(m.group(1))],
                  text) + "\n"


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


def significant(text: str) -> str:
    """The significant digits of a ``'%.17g'`` text, integer zeros kept."""
    mantissa = text.lstrip("-").split("e")[0]
    return mantissa.replace(".", "").lstrip("0") or "0"


def layout_values(rng, exponents, trials=400):
    """For each decimal exponent and each count of significant digits
    1..17, up to two doubles whose ``'%.17g' %`` shows exactly those
    digits, found by trying random decimals of that length."""
    found = {}
    for e in exponents:
        for n in range(1, 18):
            hits = []
            for _ in range(trials):
                digits = "".join(map(str, rng.integers(0, 10, n)))
                digits = str(rng.integers(1, 10)) + digits[1:]
                if n > 1 and digits[-1] == "0":
                    continue
                value = float(f"{digits[0]}.{digits[1:]}e{e}")
                if significant("%.17g" % value) == \
                        digits + "0" * max(0, e + 1 - n) * (0 <= e < 17):
                    hits.append(value)
                    if len(hits) == 2:
                        break
            found[e, n] = hits
    return found


def test_layout_sweep_covers_every_point_position_and_length():
    # positional notation runs from e = -4 to 16: the point follows 1..16
    # integer digits, and 1..17 significant digits are shown
    found = layout_values(np.random.default_rng(23), range(-6, 19))
    missing = [(e, n) for e in range(-4, 17) for n in range(1, 18)
               if not found[e, n]]
    assert not missing
    assert all(found[e, n] for e in (-6, -5, 17, 18) for n in range(2, 18))
    shown = {("%.17g" % v).lstrip("-").find(".") for hits in
             found.values() for v in hits}
    assert set(range(1, 17)) <= shown


def block_straddle_values():
    """Three blocks of a one-column table, with awkward values on both
    sides of each boundary between them."""
    values = np.linspace(-3.0, 7.0, 2 * serialize._BLOCK + 12)
    edge = [np.nan, 2.0 ** -25, 1e-300, -0.0, 123.5, 1e17, -1e-5, 1e16,
            0.1, 5e-324]
    for start in (serialize._BLOCK - 5, 2 * serialize._BLOCK - 5):
        values[start:start + len(edge)] = edge
    return values


def test_cells_match_percent_format(tmp_path):
    rng = np.random.default_rng(24)
    layouts = layout_values(rng, [*range(-7, 19), -308, -300, -250, -249,
                                  -101, -100, -99, 99, 100, 101, 249, 250,
                                  300, 308])
    sweeps = dict(sweep_values(),
                  layouts=np.array(sum(layouts.values(), [])),
                  straddles=block_straddle_values())
    for name, values in sweeps.items():
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


def awkward_document():
    rng = np.random.default_rng(21)
    return {
        "specials": [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-300, 1e300, -1e300,
                     1.7976931348623157e308, 0.1, 2.0 ** -25],
        "numpy scalars": [np.float32(0.1), np.float16(-2.5), np.int64(-7),
                          np.uint8(200), np.float64(np.nan),
                          np.longdouble(1.5)],
        "zero-d": [np.array(2.5), np.array(-3), np.array(1 - 2j),
                   np.array(np.inf), np.array(True)],
        "matrix": awkward_values(rng, 20).reshape(4, 5),
        "cube": np.arange(24.0).reshape(2, 3, 4) / 7.0,
        "ints": np.arange(-3, 4),
        "int matrix": np.arange(6, dtype=np.int32).reshape(2, 3),
        "bools": np.array([[True, False]]),
        "complex": np.array([1 - 2j, np.nan + 1j, -0.0 - 0.0j]),
        "complex64": np.array([[0.1 + 0.2j]], np.complex64),
        "complex scalars": [3 + 4j, np.complex128(-1j),
                            np.complex64(0.5 + 0.25j)],
        "objects": np.array([1, "a", 2.5, None], dtype=object),
        "float32 array": np.array([0.1, 1e-40, np.inf], np.float32),
        "one value": np.array([-0.0]),
        "tuple": (1, 2.5, "three", None, True, False),
        "empty": [[], {}, (), np.array([]), np.zeros((0, 3)),
                  np.zeros((2, 0)), np.array([], dtype=np.int64), ""],
        "nested": {"a": {"b": {"c": {"d": [1.5, {"e": [], "f": {}}]}}}},
        "strings": ["Gr\u00fc\u00dfe, \u2713 \u03bb \U0001f600",
                    'say "hi"\n\t\\ /', "\u0000\u001f\x7f"],
        7: "int key", 2.5: "float key", None: "none key",
        False: "bool key", np.int64(9): [0.1, 0.2], "\u00e9": 1,
        "float array": awkward_values(rng, 300),
    }


def test_dumps_matches_per_value_reference():
    doc = awkward_document()
    assert serialize.dumps(doc) == reference_dumps(doc)
    for part in doc.values():
        assert serialize.dumps(part) == reference_dumps(part)
    matrix = np.arange(12.0).reshape(3, 4) / 7.0
    complex_matrix = np.arange(6.0).reshape(2, 3) * (1 - 1j)
    for top in (1.5, np.nan, -0.0, 3, True, None, "text", [], {},
                np.array([]), np.array(7.25), [[]], [{}], {"": []},
                [np.float64(2.0)] * 3, np.eye(2), 1j, ["nan", "-inf"],
                matrix.T, matrix[::-1, ::2], complex_matrix.T,
                np.asfortranarray(complex_matrix)):
        assert serialize.dumps(top) == reference_dumps(top), top


def test_dumps_awkward_values_in_every_container():
    rng = np.random.default_rng(22)
    values = awkward_values(rng, 2000)
    for doc in (values, values.tolist(), values.reshape(40, 50),
                {"x": list(values[:100]), "y": values[100:].reshape(-1, 2)},
                [{"v": v} for v in values[:50]]):
        assert serialize.dumps(doc) == reference_dumps(doc)
    assert json.loads(serialize.dumps(values))[20:25] == \
        json.loads(json.dumps(values[20:25].tolist()))


def test_dumps_numpy_bools():
    doc = {"x": np.True_, "y": [np.False_, np.bool_(True)],
           "z": np.array(False)}
    assert serialize.dumps(doc) == reference_dumps(
        {"x": True, "y": [False, True], "z": False})
    assert json.loads(serialize.dumps(doc)) == \
        {"x": True, "y": [False, True], "z": False}


def test_dumps_rejects_unknown_types():
    for bad in (object(), {1, 2}, b"bytes", {"a": [object()]}):
        with pytest.raises(TypeError, match="cannot serialize"):
            serialize.dumps(bad)


def test_json_round_trip(tmp_path):
    doc = {"a": np.array([0.1, -2.0, np.nan]), "b": {"c": [1, None]}}
    path = tmp_path / "doc.json"
    serialize.json_dump(path, doc)
    assert path.read_text(encoding="utf-8") == reference_dumps(doc)
    assert serialize.json_load(path) == \
        {"a": [0.1, -2.0, "nan"], "b": {"c": [1, None]}}
