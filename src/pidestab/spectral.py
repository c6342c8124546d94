"""Spectral data for diffusion models with exponentially fading memory.

The state operator is assumed self-adjoint and positive with a known
point spectrum.  Convolution with the kernel ``beta(t) = b * exp(-delta*t)``
turns each eigenmode into a damped second-order scalar problem whose two
decay roots drive everything else in the toolkit: the attainable decay
rates, the split into modes that need control and modes that are already
fast enough, and the companion matrices used for synthesis.

Parameters
----------
Throughout this module ``lam`` denotes an operator eigenvalue and
``gamma`` a requested exponential decay rate.  :func:`modal_roots` is the
one root routine: it takes a single eigenvalue or a whole array of them,
and every caller in the toolkit passes its whole spectrum in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConfigError,
    DegenerateSpectrumError,
    GammaOutOfRangeError,
)

#: absolute tolerance on distances between decay roots below which the
#: root structure is treated as degenerate
DEGENERACY_TOL = 1e-9

#: relative tolerance under which two eigenvalues are merged into one
#: entry with summed multiplicity
MERGE_TOL = 1e-12

#: rows per block of the cross-branch scan in check_degeneracy, which
#: bounds its scratch arrays to this many rows of all modes
_SCAN_ROWS = 256


@dataclass(frozen=True)
class MemoryKernel:
    """Exponential memory kernel ``beta(t) = b * exp(-delta * t)``.

    Parameters
    ----------
    b : float
        Kernel amplitude, ``b >= 0``.  ``b = 1`` is the normalized case
        where the kernel solves ``beta' + delta*beta = 0`` with
        ``beta(0) = 1``; ``b = 0`` switches the memory off entirely.
    delta : float
        Decay rate of the kernel, ``delta > 0``.
    """

    b: float
    delta: float

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ConfigError("kernel decay rate must be positive and finite")
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise ConfigError("kernel amplitude must be nonnegative and finite")

    def __call__(self, t):
        return beta_eval(self, t)


def beta_eval(kernel: MemoryKernel, t):
    """Evaluate the kernel at time(s) ``t`` (vectorized)."""
    return kernel.b * np.exp(-kernel.delta * np.asarray(t, dtype=float))


def growth_bound(kernel: MemoryKernel) -> float:
    """Supremum of decay rates attainable by feedback, ``b + delta``.

    The slow decay root of every mode stays strictly above this number
    and tends to it as the eigenvalue grows, so no feedback law acting
    on finitely many modes can beat it.
    """
    return kernel.b + kernel.delta


@dataclass(frozen=True)
class ModalRootPair:
    """The two decay roots of one eigenmode, or of many.

    The mode with eigenvalue ``lam`` responds like a linear combination
    of ``exp(-mu_plus * t)`` and ``exp(-mu_minus * t)``.  Roots are the
    solutions of ``mu^2 - (lam + delta) mu + lam (b + delta) = 0`` and
    satisfy ``Re mu_plus >= Re mu_minus > 0``.  When built from an array
    of eigenvalues every field is an array of the same shape.
    """

    lam: float
    mu_plus: complex
    mu_minus: complex
    is_real: bool
    is_degenerate: bool


def modal_roots(lam, kernel: MemoryKernel,
                tol: float = DEGENERACY_TOL) -> ModalRootPair:
    """Decay roots of the modes with eigenvalue(s) ``lam``.

    Uses the cancellation-free quadratic formula: the large root comes
    from the stable branch, the small root from the product identity
    ``mu_plus * mu_minus = lam * (b + delta)``, so both roots carry full
    relative precision even when they differ by many orders of
    magnitude.

    Parameters
    ----------
    lam : float or array_like
        Operator eigenvalue(s), each ``> 0``.  An array is evaluated
        elementwise in one pass.
    kernel : MemoryKernel
    tol : float
        Absolute distance under which a pair is flagged degenerate.

    Returns
    -------
    ModalRootPair
        For a scalar ``lam`` the fields are Python ``complex`` and
        ``bool``; for an array they are arrays of its shape.
    """
    lams = np.asarray(lam, dtype=float)
    if not np.all((lams > 0.0) & np.isfinite(lams)):
        raise ConfigError("eigenvalue must be positive and finite")
    s = lams + kernel.delta
    p = lams * (kernel.b + kernel.delta)
    disc = s * s - 4.0 * p
    # a parameter-exact double root leaves disc at rounding level while
    # the root gap sqrt(disc) inflates to ~1e-8, so degeneracy is judged
    # on the discriminant scale, with the absolute gap as a fallback
    fused = np.abs(disc) <= max(tol * tol, 100.0 * np.finfo(float).eps) \
        * np.maximum(s * s, np.abs(4.0 * p))
    real = disc >= 0.0
    root = np.sqrt(np.abs(disc))
    # real branch: mu_plus = (s + root) / 2, mu_minus = p / mu_plus;
    # complex branch: s / 2 +- i root / 2
    big = 0.5 * (s + root)
    om = 0.5 * root
    mu_plus = np.empty(lams.shape, dtype=complex)
    mu_minus = np.empty(lams.shape, dtype=complex)
    mu_plus.real = np.where(real, big, 0.5 * s)
    mu_plus.imag = np.where(real, 0.0, om)
    mu_minus.real = np.where(real, p / big, 0.5 * s)
    mu_minus.imag = np.where(real, 0.0, -om)
    gap = np.where(real, np.abs(mu_plus.real - mu_minus.real), 2.0 * om)
    degenerate = fused | (gap <= tol)
    if lams.ndim == 0:
        return ModalRootPair(lam=lam, mu_plus=complex(mu_plus),
                             mu_minus=complex(mu_minus), is_real=bool(real),
                             is_degenerate=bool(degenerate))
    return ModalRootPair(lam=lams, mu_plus=mu_plus, mu_minus=mu_minus,
                         is_real=real, is_degenerate=degenerate)


@dataclass(frozen=True)
class SpectrumEntry:
    """One distinct eigenvalue with its multiplicity and an opaque label."""

    lam: float
    multiplicity: int
    label: str

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError("eigenvalues must be positive and finite")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted list of distinct eigenvalues with multiplicities."""

    entries: tuple

    def __post_init__(self):
        lams = [e.lam for e in self.entries]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("spectrum entries must be strictly increasing")
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("spectrum labels must be unique")

    @classmethod
    def from_values(cls, values, multiplicities=None,
                    labels=None) -> "Spectrum":
        """Normalize raw input: sort ascending and merge near-equal values.

        Values within relative ``MERGE_TOL`` of each other collapse into
        one entry whose multiplicity is the sum and whose label joins the
        original labels with ``|``.
        """
        values = [float(v) for v in values]
        n = len(values)
        if n == 0:
            raise ValueError("spectrum must contain at least one eigenvalue")
        if multiplicities is None:
            multiplicities = [1] * n
        if labels is None:
            labels = [str(i + 1) for i in range(n)]
        if len(multiplicities) != n or len(labels) != n:
            raise ValueError("values, multiplicities and labels must align")
        order = sorted(range(n), key=lambda i: values[i])
        merged = []
        for i in order:
            lam, mult, label = values[i], int(multiplicities[i]), str(labels[i])
            if merged and abs(lam - merged[-1][0]) <= MERGE_TOL * max(abs(lam), abs(merged[-1][0])):
                prev = merged[-1]
                merged[-1] = (prev[0], prev[1] + mult, prev[2] + "|" + label)
            else:
                merged.append((lam, mult, label))
        return cls(tuple(SpectrumEntry(*m) for m in merged))

    @property
    def n_modes(self) -> int:
        """Total mode count including multiplicity."""
        return sum(e.multiplicity for e in self.entries)

    def expanded(self, count: int | None = None):
        """Eigenvalues repeated by multiplicity.

        Returns ``(lams, entry_index)`` as arrays of length ``count``
        (default: all modes).  Raises if more modes are requested than
        the spectrum holds.
        """
        mult = [e.multiplicity for e in self.entries]
        total = sum(mult)
        if count is None:
            count = total
        if count > total:
            raise ValueError(
                f"spectrum holds {total} modes, {count} requested")
        lams = np.repeat(np.array([e.lam for e in self.entries], dtype=float),
                         mult)
        idx = np.repeat(np.arange(len(mult), dtype=int), mult)
        return lams[:count], idx[:count]

    def to_records(self):
        return [
            {"lambda": e.lam, "multiplicity": e.multiplicity, "label": e.label}
            for e in self.entries
        ]

    @classmethod
    def from_records(cls, records) -> "Spectrum":
        try:
            return cls.from_values(
                [r["lambda"] for r in records],
                [r.get("multiplicity", 1) for r in records],
                [r.get("label", str(i + 1)) for i, r in enumerate(records)],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed spectrum records: {exc}") from exc


@dataclass(frozen=True)
class DegeneracyViolation:
    """One degeneracy in the root structure of a spectrum."""

    kind: str           # "double_root" or "branch_collision"
    labels: tuple
    value: complex      # the (near-)coincident root
    separation: float


def check_degeneracy(spectrum: Spectrum, kernel: MemoryKernel,
                     tol: float = DEGENERACY_TOL):
    """Scan a spectrum for degenerate root structure.

    Flags (a) modes whose two decay roots coincide within ``tol`` and
    (b) cross-branch collisions where the fast root of one mode meets
    the slow root of another.  An empty report is a precondition for
    the synthesis path; this function itself never raises.
    """
    entries = spectrum.entries
    roots = modal_roots(np.array([e.lam for e in entries]), kernel, tol)
    mu_plus, mu_minus = roots.mu_plus, roots.mu_minus
    # NumPy's complex abs can differ from Python's in the last bit, so
    # each entry is decided and measured on Python complex values, and
    # the array scan below keeps candidates with a margin
    py_plus, py_minus = mu_plus.tolist(), mu_minus.tolist()
    report = [DegeneracyViolation(
        kind="double_root",
        labels=(entries[i].label,),
        value=py_plus[i],
        separation=abs(py_plus[i] - py_minus[i]),
    ) for i in np.flatnonzero(roots.is_degenerate)]
    limit = (1.0 + 1e-12) * tol * np.maximum(1.0, np.abs(mu_plus))
    # all pairs (i, j), a block of rows at a time to bound the memory
    for lo in range(0, len(entries), _SCAN_ROWS):
        sep = np.abs(mu_plus[lo:lo + _SCAN_ROWS, None] - mu_minus[None, :])
        for r, j in zip(*np.nonzero(sep <= limit[lo:lo + _SCAN_ROWS, None])):
            i = lo + r  # row-major: i, then j
            gap = abs(py_plus[i] - py_minus[j])
            if i != j and gap <= tol * max(1.0, abs(py_plus[i])):
                report.append(DegeneracyViolation(
                    kind="branch_collision",
                    labels=(entries[i].label, entries[j].label),
                    value=py_plus[i],
                    separation=gap,
                ))
    return report


@dataclass(frozen=True, eq=False)
class UnstablePartition:
    """Split of a spectrum at decay rate ``gamma``.

    The first ``n_total`` modes (counted with multiplicity) have at
    least one decay root with real part at or below ``gamma`` and must
    be handled by feedback; every excluded mode decays strictly faster
    than ``gamma`` on both branches.

    Attributes
    ----------
    n1, n2 : int
        Last mode index (1-based, with multiplicity) whose fast/slow
        root respectively is at or below ``gamma``; 0 when none is.
    n_total : int
        ``max(n1, n2)``; the size of the controlled block.
    groups : tuple[SpectrumEntry, ...]
        Distinct eigenvalues among the controlled modes, in order.
    m_max : int
        Largest multiplicity among ``groups``; the minimum number of
        independent actuators.
    stable_margin : float
        A positive lower bound on ``min(Re mu) - gamma`` over every
        excluded mode, including the asymptotic floor ``b + delta -
        gamma`` for the unlisted tail.
    lambdas : numpy.ndarray
        Controlled-mode eigenvalues expanded by multiplicity.
    degeneracies : tuple[DegeneracyViolation, ...]
        The :func:`check_degeneracy` report of the whole spectrum, kept
        whether or not it was allowed to pass.
    roots : ModalRootPair
        Decay roots of every mode, expanded by multiplicity.
    """

    gamma: float
    n1: int
    n2: int
    n_total: int
    groups: tuple
    m_max: int
    unstable_labels: tuple
    stable_margin: float
    lambdas: np.ndarray = field(repr=False)
    degeneracies: tuple
    roots: ModalRootPair = field(repr=False)

    @property
    def group_sizes(self):
        return tuple(g.multiplicity for g in self.groups)


def _slow_counts(roots: ModalRootPair, gamma: float) -> tuple:
    """``(n1, n2)``: the last mode (1-based) whose fast / slow root has
    real part at or below ``gamma``, 0 when none has."""
    def last_index_at_or_below(values) -> int:
        hits = np.nonzero(values <= gamma)[0]
        return int(hits[-1]) + 1 if hits.size else 0

    return (last_index_at_or_below(roots.mu_plus.real),
            last_index_at_or_below(roots.mu_minus.real))


def partition_spectrum(spectrum: Spectrum, kernel: MemoryKernel,
                       gamma: float, *, tol: float = DEGENERACY_TOL,
                       check_degenerate: bool = True) -> UnstablePartition:
    """Partition a spectrum at target decay rate ``gamma``.

    This is the one spectral pass of a design: it scans the spectrum
    for degeneracies and computes the root pair of every mode once, and
    keeps both on the result for the later stages.

    Parameters
    ----------
    spectrum : Spectrum
    kernel : MemoryKernel
    gamma : float
        Requested decay rate; must satisfy ``0 < gamma < b + delta``.
    check_degenerate : bool
        When true (default) a nonempty degeneracy report aborts with
        :class:`DegenerateSpectrumError`.  Synthesis paths that opt in
        to degenerate spectra disable the check explicitly; the report
        is kept on the partition either way.

    Notes
    -----
    Inclusion uses ``<=`` so a mode sitting exactly at ``gamma`` lands
    in the controlled block.  Groups never straddle the boundary
    because equal eigenvalues share their roots.
    """
    bound = growth_bound(kernel)
    if not (0.0 < gamma < bound):
        raise GammaOutOfRangeError(
            f"gamma={gamma} outside the admissible range (0, {bound})")
    report = check_degeneracy(spectrum, kernel, tol)
    if check_degenerate and report:
        raise DegenerateSpectrumError(
            "degenerate root structure; synthesis preconditions fail",
            report=report)

    lams, _ = spectrum.expanded()
    roots = modal_roots(lams, kernel, tol)
    n1, n2 = _slow_counts(roots, gamma)
    n_total = max(n1, n2)

    groups = []
    covered = 0
    for e in spectrum.entries:
        if covered >= n_total:
            break
        groups.append(e)
        covered += e.multiplicity
    # equal eigenvalues share their root pair, so the boundary always
    # falls between groups
    assert covered == n_total, "partition split a multiplicity group"

    margin = bound - gamma
    if n_total < lams.size:
        tail = slice(n_total, None)
        tail_margin = float(np.min(np.minimum(roots.mu_plus.real[tail],
                                              roots.mu_minus.real[tail]))
                            - gamma)
        margin = min(margin, tail_margin)

    return UnstablePartition(
        gamma=gamma,
        n1=n1,
        n2=n2,
        n_total=n_total,
        groups=tuple(groups),
        m_max=max((g.multiplicity for g in groups), default=0),
        unstable_labels=tuple(g.label for g in groups),
        stable_margin=margin,
        lambdas=lams[:n_total].copy(),
        degeneracies=tuple(report),
        roots=roots,
    )
