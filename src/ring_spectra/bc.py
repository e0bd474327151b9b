"""The U(2) boundary-condition space.

A self-adjoint junction condition is a unitary 2x2 matrix U linking the
two boundary-data vectors of the wavefunction.  Every U carries the
chart U = e^{i eta} (m0 I + i m.sigma) with eta in [0, pi) and
(m0, m) a unit 4-vector; the spectral function sees U only through the
invariant triple (det U, tr U, tr(U sx)), which is what makes whole
orbits of boundary conditions isospectral.  The spectral function
itself is written once, here, in terms of that triple.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .matalg import I2, SX, TAU, NonUnitaryError, det2, require_unitary, tr2


class BCParseError(ValueError):
    """Malformed boundary-condition text specification."""


class BCConstraintError(ValueError):
    """Well-formed specification with values violating a constraint."""


@dataclass(frozen=True, eq=False)
class UnitaryBC:
    """A boundary condition: the matrix plus its (eta, m0, m) chart.

    Invariants (validated on construction): the matrix is unitary to
    1e-12, m0^2 + |m|^2 = 1 to 1e-12, and the matrix equals
    e^{i eta} (m0 I + i m.sigma) to 1e-12; a NaN or infinite entry
    fails them.
    """

    matrix: np.ndarray
    eta: float
    m0: float
    m: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex).copy()
        mvec = np.asarray(self.m, dtype=float).copy()
        mat.setflags(write=False)
        mvec.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "m", mvec)
        (a, b), (c, d) = mat.tolist()
        _check_chart(a, b, c, d, float(self.eta), float(self.m0), *mvec.tolist())

    def __repr__(self) -> str:  # compact, chart-first
        return (
            f"UnitaryBC(eta={self.eta:.6g}, m0={self.m0:.6g}, "
            f"m=({self.m[0]:.6g}, {self.m[1]:.6g}, {self.m[2]:.6g}))"
        )


@dataclass(frozen=True)
class InvariantTriple:
    """The three functionals of U the spectral function depends on
    (complex numbers, or arrays of them for a batch of U)."""

    det_u: complex
    tr_u: complex
    tr_u_sx: complex


def _check_chart(a, b, c, d, eta, m0, m1, m2, m3) -> None:
    """UnitaryBC's three invariants for W = [[a, b], [c, d]] and its chart
    (eta, m0, m1, m2, m3), all Python scalars, each to 1e-12 and as
    `not x < tol`, so that NaN fails them."""
    off = abs(a.conjugate() * b + c.conjugate() * d)  # W^H W - I, entry by entry
    res = ((abs(a) ** 2 + abs(c) ** 2 - 1.0) ** 2 + (abs(b) ** 2 + abs(d) ** 2 - 1.0) ** 2
           + 2.0 * off * off) ** 0.5
    if not res < 1e-12:
        raise NonUnitaryError(res, 1e-12)
    if not abs(m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3 - 1.0) < 1e-12:
        raise BCConstraintError("(m0, m) is not a unit 4-vector")
    z, i1, i3 = cmath.exp(1j * eta), 1j * m1, 1j * m3  # z is NaN, not an error, at an infinite eta
    gap = (abs(a - z * (m0 + i3)) ** 2 + abs(b - z * (m2 + i1)) ** 2
           + abs(c - z * (i1 - m2)) ** 2 + abs(d - z * (m0 - i3)) ** 2) ** 0.5
    if not gap < 1e-12:
        raise BCConstraintError("matrix does not match its (eta, m0, m) chart")


def _chart_matrix(eta: float, m0: float, m: np.ndarray) -> np.ndarray:
    m1, m2, m3 = m
    return np.exp(1j * eta) * np.array(
        [
            [m0 + 1j * m3, m2 + 1j * m1],
            [-m2 + 1j * m1, m0 - 1j * m3],
        ]
    )


def _extract_chart(mat: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Recover (eta, m0, m) from a unitary matrix.

    eta = arg(det)/2 folded into [0, pi); folding by +pi flips the sign
    of the whole 4-vector (m0, m), which keeps the chart single-valued.
    """
    eta = 0.5 * np.angle(det2(mat))
    if eta < 0.0:
        eta += np.pi
    v = np.exp(-1j * eta) * mat
    m0 = 0.5 * tr2(v).real
    m = np.array(
        [
            0.5 * (v[0, 1] + v[1, 0]).imag,
            0.5 * (v[0, 1] - v[1, 0]).real,
            0.5 * (v[0, 0] - v[1, 1]).imag,
        ]
    )
    return float(eta), float(m0), m


def _from_chart(eta: float, m0: float, m: np.ndarray) -> UnitaryBC:
    """Canonicalize chart parameters and build the exact matrix."""
    eta = float(np.mod(eta, TAU))
    if eta >= np.pi:
        eta -= np.pi
        m0, m = -m0, -np.asarray(m, dtype=float)
    vec = np.concatenate([[m0], np.asarray(m, dtype=float)])
    vec = vec / np.linalg.norm(vec)
    return UnitaryBC(_chart_matrix(eta, vec[0], vec[1:]), eta, float(vec[0]), vec[1:])


def from_matrix(mat: np.ndarray, tol: float = 1e-10) -> UnitaryBC:
    """Build a boundary condition from a (numerically) unitary matrix.

    The input may be unitary only to ``tol``; the stored matrix is
    polished through the chart so the 1e-12 class invariants always
    hold.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError("boundary-condition matrix must be 2x2")
    require_unitary(mat, tol)
    return _from_chart(*_extract_chart(mat))


def named_family(
    name: str,
    alpha: float | None = None,
    eta: float | None = None,
    theta: float | None = None,
) -> UnitaryBC:
    """One of the named one/two-parameter boundary-condition families.

    robin   e^{i alpha} I                     (local Robin conditions)
    pp      [[0, -e^{-i alpha}], [-e^{i alpha}, 0]]   pseudo-periodic
    qp      [[-sin a, i cos a], [-i cos a, sin a]]    quasi-periodic
    chiral  e^{i alpha} I                     (local chiral conditions)
    dpp     [[0, e^{-i alpha}], [e^{i alpha}, 0]]     pseudo-periodic,
            spinor form
    parity  e^{i eta} [[cos t, i sin t], [i sin t, cos t]]

    ``alpha`` is reduced mod 2 pi (all families are 2 pi periodic).
    """
    if name == "parity":
        if eta is None or theta is None:
            raise ValueError("parity family needs eta and theta")
        mat = np.exp(1j * eta) * np.array(
            [
                [np.cos(theta), 1j * np.sin(theta)],
                [1j * np.sin(theta), np.cos(theta)],
            ]
        )
    else:
        if alpha is None:
            raise ValueError(f"family {name!r} needs alpha")
        alpha = float(np.mod(alpha, TAU))
        if name in ("robin", "chiral"):
            mat = np.exp(1j * alpha) * I2
        elif name == "pp":
            mat = np.array(
                [[0.0, -np.exp(-1j * alpha)], [-np.exp(1j * alpha), 0.0]]
            )
        elif name == "dpp":
            mat = np.array(
                [[0.0, np.exp(-1j * alpha)], [np.exp(1j * alpha), 0.0]]
            )
        elif name == "qp":
            mat = np.array(
                [
                    [-np.sin(alpha), 1j * np.cos(alpha)],
                    [-1j * np.cos(alpha), np.sin(alpha)],
                ]
            )
        else:
            raise ValueError(f"unknown boundary-condition family {name!r}")
    e, m0, m = _extract_chart(mat)
    return UnitaryBC(mat, e, m0, m)


def invariant_triple(u: UnitaryBC | np.ndarray) -> InvariantTriple:
    """(det U, tr U, tr(U sx)) -- the complete isospectral fingerprint.

    A stack of matrices, shape (..., 2, 2), gives a triple of arrays.
    """
    mat = u.matrix if isinstance(u, UnitaryBC) else np.asarray(u, dtype=complex)
    parts = (det2(mat), tr2(mat), mat[..., 0, 1] + mat[..., 1, 0])
    if mat.ndim == 2:
        parts = tuple(complex(z) for z in parts)
    return InvariantTriple(*parts)


def spectral_function(a, b, c, u: UnitaryBC | InvariantTriple):
    """F_U = det(B - U) = det U - a tr U + b tr(U sx) + c for the
    transfer matrix B = a I + b sx with c = det B; broadcasts over
    arrays of kernel coefficients.  ``u`` may also be given by its
    invariant triple, whose fields may be arrays aligned with the
    coefficients (one U per energy)."""
    t = u if isinstance(u, InvariantTriple) else invariant_triple(u)
    return t.det_u - a * t.tr_u + b * t.tr_u_sx + c


def conjugate_orbit(u: UnitaryBC, lam: float) -> UnitaryBC:
    """The isospectral partner e^{i lam sx} U e^{-i lam sx}.

    Conjugation by e^{i lam sx} preserves the invariant triple, hence
    the whole orbit shares one spectrum.  In U's chart it keeps (eta,
    m0, m1) as they are and turns (m2, m3) by the angle 2 lam:
    m2' = c m2 + s m3 and m3' = c m3 - s m2, with c = cos 2 lam and
    s = sin 2 lam; the matrix is built from that chart and checked by
    the constructor, as every orbit member in the package is.
    """
    c, s = math.cos(2.0 * lam), math.sin(2.0 * lam)
    m1, m2, m3 = u.m.tolist()
    m = (m1, c * m2 + s * m3, c * m3 - s * m2)
    return UnitaryBC(_chart_matrix(u.eta, u.m0, m), u.eta, u.m0, m)


def is_parity_symmetric(u: UnitaryBC, tol: float = 1e-10) -> bool:
    """Whether U commutes with sx, i.e. is a fixed point of the orbit.

    These are exactly the conditions of the two-parameter parity family,
    the ones uniquely tied to their spectrum.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    comm = u.matrix @ SX - SX @ u.matrix
    return bool(np.linalg.norm(comm) < tol)


def random_unitary_bc(rng: np.random.Generator) -> UnitaryBC:
    """Haar-like sample: uniform eta in [0, pi), Gaussian point on S^3."""
    eta = rng.uniform(0.0, np.pi)
    vec = rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    return _from_chart(eta, vec[0], vec[1:])


# ---------------------------------------------------------------------------
# text format (CLI)

_FAMILY_KEYS = {
    "robin": ("alpha",),
    "pp": ("alpha",),
    "qp": ("alpha",),
    "chiral": ("alpha",),
    "dpp": ("alpha",),
    "parity": ("eta", "theta"),
    "u2": ("eta", "m0", "m1", "m2", "m3"),
}

_NUM = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _finite(tok: str) -> float:
    """A token that matched ``_NUM`` as a float; one that overflows
    (``1e999``) is refused, so no infinity reaches the matrix."""
    x = float(tok)
    if not math.isfinite(x):
        raise BCParseError(f"not a finite number: {tok!r}")
    return x


def _parse_kv(body: str, keys: tuple[str, ...]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in body.split(","):
        if "=" not in item:
            raise BCParseError(f"expected key=value, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in keys:
            raise BCParseError(f"unknown parameter {key!r}")
        if key in out:
            raise BCParseError(f"duplicate parameter {key!r}")
        if not _NUM.match(val):
            raise BCParseError(f"not a number: {val!r}")
        out[key] = _finite(val)
    missing = [k for k in keys if k not in out]
    if missing:
        raise BCParseError(f"missing parameter(s): {', '.join(missing)}")
    return out


def parse_bc(text: str) -> UnitaryBC:
    """Parse a boundary-condition specification string.

    Formats: ``robin:alpha=<f>``, ``pp:alpha=<f>``, ``qp:alpha=<f>``,
    ``chiral:alpha=<f>``, ``dpp:alpha=<f>``,
    ``parity:eta=<f>,theta=<f>``,
    ``u2:eta=<f>,m0=<f>,m1=<f>,m2=<f>,m3=<f>`` (unit-4-vector checked
    to 1e-9), and ``mat:<8 comma-separated reals>`` (row-major re/im
    pairs, unitarity checked).

    Raises :class:`BCParseError` for malformed text and
    :class:`BCConstraintError`/:class:`NonUnitaryError` for well-formed
    text with invalid values.
    """
    kind, sep, body = text.partition(":")
    kind = kind.strip().lower()
    if not sep or not body:
        raise BCParseError(f"expected '<kind>:<params>', got {text!r}")
    if kind == "mat":
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 8 or not all(_NUM.match(p) for p in parts):
            raise BCParseError("mat: expects 8 comma-separated reals")
        vals = np.array([_finite(p) for p in parts])
        mat = (vals[0::2] + 1j * vals[1::2]).reshape(2, 2)
        return from_matrix(mat, tol=1e-9)
    if kind not in _FAMILY_KEYS:
        raise BCParseError(f"unknown boundary-condition kind {kind!r}")
    kv = _parse_kv(body, _FAMILY_KEYS[kind])
    if kind == "parity":
        return named_family("parity", eta=kv["eta"], theta=kv["theta"])
    if kind == "u2":
        vec = np.array([kv["m0"], kv["m1"], kv["m2"], kv["m3"]])
        with np.errstate(over="ignore"):  # beyond 1e154, |v|^2 is inf
            off = vec @ vec - 1.0
        if abs(off) > 1e-9:
            raise BCConstraintError(f"(m0, m) must lie on the unit 3-sphere; |v|^2 - 1 = {off:.2e}")
        return _from_chart(kv["eta"], vec[0], vec[1:])
    return named_family(kind, alpha=kv["alpha"])
