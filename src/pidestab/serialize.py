"""Result persistence: CSV tables and JSON documents.

Every floating-point value is written with 17 significant digits so
that runs are byte-reproducible and round-trip exactly through text.
Complex values appear as [re, im] pairs; non-finite values as the
strings "inf", "-inf", "nan" (strict JSON has no literals for them).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np


def format_float(x: float) -> str:
    """Shortest 17-significant-digit decimal, exact under round-trip."""
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


_TOKEN = "__f17g_{}__"
_TOKEN_RE = re.compile(r'"__f17g_(\d+)__"')


def _convert(obj, tokens: list):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        tokens.append(format_float(float(obj)))
        return _TOKEN.format(len(tokens) - 1)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_convert(obj.real, tokens), _convert(obj.imag, tokens)]
    if isinstance(obj, np.ndarray):
        return [_convert(v, tokens) for v in obj.tolist()] \
            if obj.ndim > 0 else _convert(obj.item(), tokens)
    if isinstance(obj, dict):
        return {str(k): _convert(v, tokens) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_convert(v, tokens) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    tokens: list = []
    tree = _convert(obj, tokens)
    text = json.dumps(tree, indent=2)
    return _TOKEN_RE.sub(lambda m: tokens[int(m.group(1))], text) + "\n"


def json_dump(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def json_load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, header, table) -> None:
    """Header line, then one line per row of a 2-D float table.

    Each row is formatted by one ``%`` operation with 17 significant
    digits per cell; non-finite cells read ``nan``, ``inf``, ``-inf``.
    """
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row.tolist()) for row in table)


def trajectory_csv(path, traj) -> None:
    """Full state dump: time, modal coefficients, memory, controls, norms."""
    k = traj.n_modes
    header = (["t"]
              + [f"alpha_{i+1}" for i in range(k)]
              + [f"z_{i+1}" for i in range(k)])
    columns = [traj.grid[:, None], traj.alpha, traj.z]
    if traj.controls is not None:
        n_ctrl = traj.controls.shape[1]
        labels = list(traj.control_labels) if traj.control_labels else []
        if len(labels) != n_ctrl:
            labels = [f"u_{i+1}" for i in range(n_ctrl)]
        header += labels
        if n_ctrl:
            columns.append(traj.controls)
    header += ["norm_y", "norm_a_alpha_minus_half", "norm_a_alpha"]
    norms = traj.norms
    columns += [norms["y"][:, None], norms["a_alpha_minus_half"][:, None],
                norms["a_alpha"][:, None]]
    write_csv(path, header, np.hstack(columns))


def decay_curve_csv(path, traj, floor: float = 1e-300) -> None:
    """Plot-ready (t, log-norm) columns for the three certified norms."""
    header = ["t", "log_norm_y", "log_norm_a_alpha_minus_half",
              "log_norm_a_alpha"]
    norms = traj.norms
    logs = [np.log(np.maximum(norms[key], floor))
            for key in ("y", "a_alpha_minus_half", "a_alpha")]
    write_csv(path, header, np.column_stack([traj.grid] + logs))


def null_control_csv(path, nc) -> None:
    """Steering control samples: companion input w and amplitudes v."""
    m = nc.w.shape[0]
    header = (["t"] + [f"w_{i+1}" for i in range(m)]
              + [f"v_{i+1}" for i in range(m)])
    write_csv(path, header, np.column_stack([nc.grid, nc.w.T, nc.v.T]))


def controller_document(solution, kernel, spectrum) -> dict:
    """Self-contained JSON form of a feedback design.

    Carries everything needed to rebuild the closed loop without the
    original scenario: system matrices are re-derivable from the listed
    eigenvalues and kernel, the gain and solution matrix are stored
    row-major.
    """
    sys = solution.system
    k = sys.truncation_k
    return {
        "alpha": solution.alpha,
        "gamma": solution.gamma,
        "truncation_k": k,
        "m_actuators": sys.m_actuators,
        "gain": solution.gain.reshape(-1),
        "r_matrix": solution.r_matrix.reshape(-1),
        "residual": solution.residual,
        "closed_loop_eigs": [[ev.real, ev.imag]
                             for ev in solution.closed_loop_eigs],
        "c_km": sys.c_km.reshape(-1),
        "kernel": {"b": kernel.b, "delta": kernel.delta},
        "spectrum": spectrum.to_records(),
    }
