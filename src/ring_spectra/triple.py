"""Boundary-triple machinery for the relativistic operator.

A representation is a pair (alpha, beta) of Hermitian 2x2 matrices with
alpha beta + beta alpha = 0 and alpha^2 = beta^2 = I.  The boundary
maps Gamma_-, Gamma_+ project the wavefunction's endpoint values onto
eigenvectors of the outward-normal matrix +-alpha; they turn the
boundary form of the operator into a difference of C^2 inner products,

    Lambda(P1, P2)/(-i) = <Gamma_- P1|Gamma_- P2> - <Gamma_+ P1|Gamma_+ P2>

(in units hbar = c = L = 1), which is what lets a unitary U label every
self-adjoint extension through Gamma_- Psi = U Gamma_+ Psi.  Any two
representations are unitarily equivalent; the change-of-basis matrix is
built here in closed form from the induced rotation of the Pauli
3-vectors, and a spectral kernel assembled entirely in a non-standard
representation is provided to verify that spectra do not depend on the
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bc import InvariantTriple, UnitaryBC, from_matrix, spectral_function
from .dirac import coefficient_arrays, turning_points
from .matalg import I2, PAULI, SX, SZ, det2, pauli_decompose
from .oracles import snap_band

_REP_TOL = 1e-12
#: RepKernel's transfer matrix, back in the standard basis, must be
#: a I + b sx to this absolute tolerance
_FORM_TOL = 1e-9


@dataclass(frozen=True)
class CliffordRep:
    """A pair (alpha, beta) of Hermitian anticommuting involutions."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=complex).copy()
        beta = np.asarray(self.beta, dtype=complex).copy()
        alpha.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        for name, m in (("alpha", alpha), ("beta", beta)):
            if np.linalg.norm(m - m.conj().T) >= _REP_TOL:
                raise ValueError(f"{name} is not Hermitian")
            if np.linalg.norm(m @ m - I2) >= _REP_TOL:
                raise ValueError(f"{name} is not an involution")
        if np.linalg.norm(alpha @ beta + beta @ alpha) >= _REP_TOL:
            raise ValueError("alpha and beta do not anticommute")


DIRAC_REP = CliffordRep(SX, SZ)


def random_rep(rng: np.random.Generator) -> CliffordRep:
    """A representation obtained by conjugating (sx, sz) with a random unitary."""
    from .bc import random_unitary_bc

    g = random_unitary_bc(rng).matrix
    return CliffordRep(g @ SX @ g.conj().T, g @ SZ @ g.conj().T)


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    idx = 0 if abs(v[0]) > 1e-12 else 1
    return v * (abs(v[idx]) / v[idx])


def boundary_eigvecs(rep: CliffordRep, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized eigenvectors (e_plus, e_minus) of the outward-normal
    matrix at one endpoint.

    ``side`` is +0.5 or -0.5 (endpoints of the unit-length ring); the
    outward normal is +alpha at +1/2 and -alpha at -1/2, which forces
    e_pm(-1/2) = e_mp(+1/2).  Phases are fixed by making the first
    nonzero component real positive so boundary data is reproducible.
    """
    if side not in (+0.5, -0.5):
        raise ValueError("side must be +0.5 or -0.5")
    normal = rep.alpha if side > 0 else -rep.alpha
    vals, vecs = np.linalg.eigh(normal)
    # eigh sorts ascending: column 0 <-> -1, column 1 <-> +1
    e_minus = _canonical_phase(vecs[:, 0])
    e_plus = _canonical_phase(vecs[:, 1])
    return e_plus, e_minus


def _gauss_grid(panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [-1/2, 1/2], endpoints appended
    with zero weight so boundary values ride along."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(-0.5, 0.5, panels + 1)
    xs, ws = [np.array([-0.5])], [np.array([0.0])]
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(a + half * (xg + 1.0))
        ws.append(half * wg)
    xs.append(np.array([0.5]))
    ws.append(np.array([0.0]))
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True)
class SpinorSample:
    """A two-component wavefunction sampled on a quadrature grid.

    Derivative samples are supplied analytically by the constructor so
    identity checks are limited by quadrature error only.  The grid is
    strictly increasing and includes both endpoints +-1/2 (with zero
    quadrature weight).
    """

    x: np.ndarray
    values: np.ndarray  # (n, 2)
    dvalues: np.ndarray  # (n, 2)
    weights: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if np.any(np.diff(x) <= 0) or x[0] != -0.5 or x[-1] != 0.5:
            raise ValueError("grid must increase strictly from -1/2 to +1/2")

    @classmethod
    def from_callables(
        cls,
        psi: Callable[[np.ndarray], np.ndarray],
        dpsi: Callable[[np.ndarray], np.ndarray],
        panels: int = 8,
        nodes: int = 32,
    ) -> "SpinorSample":
        """Sample callables psi, dpsi: (n,) -> (n, 2) on a composite
        Gauss-Legendre grid (default 8 x 32 = 256 interior nodes)."""
        x, w = _gauss_grid(panels, nodes)
        return cls(x=x, values=np.asarray(psi(x)), dvalues=np.asarray(dpsi(x)), weights=w)

    def boundary_values(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values[0], self.values[-1]


def gamma_maps(rep: CliffordRep, psi: SpinorSample) -> tuple[np.ndarray, np.ndarray]:
    """The boundary-data vectors (Gamma_minus Psi, Gamma_plus Psi).

    Component 1 projects Psi(-1/2) onto the endpoint eigenvectors,
    component 2 projects Psi(+1/2).  For the standard representation
    sqrt(2) Gamma_pm reproduces the two-component boundary vectors of
    the spectral kernel exactly.
    """
    left, right = psi.boundary_values()
    ep_l, em_l = boundary_eigvecs(rep, -0.5)
    ep_r, em_r = boundary_eigvecs(rep, +0.5)
    gamma_plus = np.array([np.vdot(ep_l, left), np.vdot(ep_r, right)])
    gamma_minus = np.array([np.vdot(em_l, left), np.vdot(em_r, right)])
    return gamma_minus, gamma_plus


def boundary_form_check(
    rep: CliffordRep,
    psi1: SpinorSample,
    psi2: SpinorSample,
    mu0: float = 1.0,
) -> float:
    """Quadrature residual of the boundary-form identity.

    Evaluates Lambda(P1, P2) = <H P1|P2> - <P1|H P2> with
    H = -i alpha d/dx + mu0 beta (units hbar = c = L = 1) and returns
    |Lambda/(-i) - (<Gamma_- P1|Gamma_- P2> - <Gamma_+ P1|Gamma_+ P2>)|.
    A coarse grid shows up as a large residual; nothing is hidden.
    """
    if not np.array_equal(psi1.x, psi2.x):
        raise ValueError("spinor samples must share one quadrature grid")

    def apply_h(sample: SpinorSample) -> np.ndarray:
        return (
            -1j * sample.dvalues @ rep.alpha.T + mu0 * sample.values @ rep.beta.T
        )

    h1 = apply_h(psi1)
    h2 = apply_h(psi2)
    w = psi1.weights
    lam = np.sum(w * np.sum(np.conj(h1) * psi2.values, axis=1)) - np.sum(
        w * np.sum(np.conj(psi1.values) * h2, axis=1)
    )
    gm1, gp1 = gamma_maps(rep, psi1)
    gm2, gp2 = gamma_maps(rep, psi2)
    rhs = np.vdot(gm1, gm2) - np.vdot(gp1, gp2)
    return float(abs(lam / (-1j) - rhs))


def _pauli_vector(m: np.ndarray, name: str) -> np.ndarray:
    c0, c1, c2, c3 = pauli_decompose(m)
    vec = np.array([c1, c2, c3])
    if abs(c0) > 1e-12 or np.linalg.norm(vec.imag) > 1e-12:
        raise ValueError(f"{name} is not a traceless real Pauli combination")
    return vec.real


def _quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, branch-robust."""
    t = np.trace(r)
    candidates = [t, r[0, 0] - r[1, 1] - r[2, 2], r[1, 1] - r[0, 0] - r[2, 2], r[2, 2] - r[0, 0] - r[1, 1]]
    k = int(np.argmax(candidates))
    if k == 0:
        s = np.sqrt(1.0 + t) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif k == 1:
        s = np.sqrt(1.0 + candidates[1]) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif k == 2:
        s = np.sqrt(1.0 + candidates[2]) * 2.0
        q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + candidates[3]) * 2.0
        q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s])
    return q / np.linalg.norm(q)


def representation_transform(rep_from: CliffordRep, rep_to: CliffordRep) -> np.ndarray:
    """The unitary V with V alpha V^H = alpha', V beta V^H = beta'.

    Both matrices of a representation are unit Pauli 3-vectors, so the
    conjugation is the SU(2) lift of the rotation mapping (a, b, a x b)
    to the target frame; the global phase is fixed by making the
    largest-magnitude entry of V real positive.  No iterative solver is
    involved; failure of the final verification is a defect.
    """
    a = _pauli_vector(rep_from.alpha, "alpha")
    b = _pauli_vector(rep_from.beta, "beta")
    a2 = _pauli_vector(rep_to.alpha, "alpha")
    b2 = _pauli_vector(rep_to.beta, "beta")
    frame = np.column_stack([a, b, np.cross(a, b)])
    frame2 = np.column_stack([a2, b2, np.cross(a2, b2)])
    rot = frame2 @ frame.T

    w, x, y, z = _quaternion_from_rotation(rot)
    v = w * I2 - 1j * (x * PAULI[0] + y * PAULI[1] + z * PAULI[2])
    flat = np.argmax(np.abs(v))
    entry = v.flat[flat]
    v = v * (abs(entry) / entry)

    for src, dst in ((rep_from.alpha, rep_to.alpha), (rep_from.beta, rep_to.beta)):
        if np.linalg.norm(v @ src @ v.conj().T - dst) > 1e-10:
            raise RuntimeError("representation transform failed verification")
    return v


def _boundary_phases(rep: CliffordRep) -> dict[int, np.ndarray]:
    """Diagonals of the phase matrices Q_pm with Gamma'_pm = Q_pm Gamma_pm.

    The canonical endpoint eigenvectors of ``rep``, carried to the
    standard representation, differ from the standard ones by phases
    only; Q_+ (key +1) and Q_- (key -1) collect them per endpoint.
    """
    v = representation_transform(rep, DIRAC_REP)
    qs = {}
    for g in (+1, -1):
        phases = []
        for side in (-0.5, +0.5):
            ep_r, em_r = boundary_eigvecs(rep, side)
            ep_d, em_d = boundary_eigvecs(DIRAC_REP, side)
            e_r = ep_r if g > 0 else em_r
            e_d = ep_d if g > 0 else em_d
            phases.append(np.angle(np.vdot(e_d, v @ e_r)))
        qs[g] = np.exp(-1j * np.array(phases))
    return qs


def bc_in_rep(rep: CliffordRep, u: UnitaryBC) -> UnitaryBC:
    """Transport a standard-representation boundary condition to ``rep``.

    The endpoint eigenvectors of the two representations differ by
    phases once both are canonicalized, so the same self-adjoint
    extension is labelled by U' = Q_- U Q_+^H with diagonal phase
    matrices Q_pm.  Spectra computed from (rep, U') and (standard, U)
    agree identically.
    """
    qs = _boundary_phases(rep)
    return from_matrix(qs[-1][:, None] * u.matrix * np.conj(qs[+1]))


class RepKernel:
    """Relativistic kernel assembled in an arbitrary representation.

    Basis solutions of the eigenvalue equation are transported from the
    standard representation with V^H, projected onto the representation's
    own endpoint eigenvectors to build A_pm, and combined into
    B' = A_minus A_plus^{-1}.  The same phases Q_pm that
    :func:`bc_in_rep` uses carry B' back to the standard basis,
    B = Q_-^H B' Q_+, which must come out as a I + b sx; the
    coefficients then go through the same protocol as the closed-form
    kernels, with the polar form (h, u, v) derived from them, so spectra
    are searched with the standard U.  The basis solutions are the
    columns of the standard-representation propagator, built from
    C = cos kx and S = sin(kx)/k, the functions the closed form is also
    written in (any basis that stays regular at the gap edges, k = 0,
    is this one up to a constant change of basis).  The rest of the
    route -- transport, projection, inversion and the phases back --
    shares no formula with the closed-form coefficients, which is the
    point.  In-gap basis columns are rescaled by e^{-kappa/2} (B is
    invariant under column scaling) so the assembly stays finite.  Only
    the branch of the half phase h is borrowed: h is the value of
    arg(c)/2 + n pi nearest the closed-form lift.
    """

    theory = "dirac"

    def __init__(self, rep: CliffordRep, mu0: float):
        if mu0 < 0:
            raise ValueError("mu0 must be non-negative")
        self.rep = rep
        self.mu0 = float(mu0)
        v = representation_transform(rep, DIRAC_REP)
        # <e_g(s)| V^H Psi_D(s)> = <(V e_g(s))| Psi_D(s)>
        self._w = {}
        for side in (-0.5, +0.5):
            ep, em = boundary_eigvecs(rep, side)
            self._w[(+1, side)] = v @ ep
            self._w[(-1, side)] = v @ em
        self._q = _boundary_phases(rep)

    def _basis_boundary_values(self, mu: np.ndarray):
        """Standard-representation basis solutions at the endpoints.

        Returns (psi1_l, psi1_r, psi2_l, psi2_r), each (n, 2).
        """
        mu0 = self.mu0
        n = mu.shape[0]
        out = [np.empty((n, 2), dtype=complex) for _ in range(4)]

        band = snap_band(mu0)
        plus = np.abs(mu - mu0) < band
        minus = (np.abs(mu + mu0) < band) & ~plus
        wave = ~(plus | minus)

        if np.any(wave):
            m = mu[wave]
            # the plane waves e^{+-ikx} (1, +-k / (m + mu0)) turn parallel as
            # k -> 0 at the gap edges; their sum and difference, (C, i (m -
            # mu0) S) and (i (m + mu0) S, C) with C = cos kx and S = sin(kx)
            # / k, stay independent there (k^2 = (m - mu0)(m + mu0))
            k2 = (m - mu0) * (m + mu0)
            k = np.where(k2 > 0.0, np.sqrt(np.abs(k2)) + 0j, 1j * np.sqrt(np.abs(k2)))
            scale = np.exp(-0.5 * np.abs(k.imag))
            c = np.cos(0.5 * k) * scale  # C at x = +-1/2
            s = np.sin(0.5 * k) / k * scale  # S at x = +1/2, and -S at x = -1/2
            lower, upper = 1j * (m - mu0) * s, 1j * (m + mu0) * s
            out[0][wave] = np.column_stack([c, -lower])
            out[1][wave] = np.column_stack([c, lower])
            out[2][wave] = np.column_stack([-upper, c])
            out[3][wave] = np.column_stack([upper, c])

        if np.any(plus):
            npts = int(np.count_nonzero(plus))
            if mu0 > 0:
                # basis (1, 0) and (x, -i/(2 mu0))
                one = np.broadcast_to(np.array([1.0, 0.0], dtype=complex), (npts, 2))
                chi = -0.5j / mu0
                out[0][plus] = one
                out[1][plus] = one
                out[2][plus] = np.broadcast_to(np.array([-0.5, chi]), (npts, 2))
                out[3][plus] = np.broadcast_to(np.array([+0.5, chi]), (npts, 2))
            else:
                # massless zero point: constant spinors
                out[0][plus] = np.broadcast_to(np.array([1.0 + 0j, 0.0]), (npts, 2))
                out[1][plus] = np.broadcast_to(np.array([1.0 + 0j, 0.0]), (npts, 2))
                out[2][plus] = np.broadcast_to(np.array([0.0, 1.0 + 0j]), (npts, 2))
                out[3][plus] = np.broadcast_to(np.array([0.0, 1.0 + 0j]), (npts, 2))
        if np.any(minus):
            npts = int(np.count_nonzero(minus))
            # basis (0, 1) and (i/(2 mu0), x)
            one = np.broadcast_to(np.array([0.0, 1.0 + 0j]), (npts, 2))
            phi = 0.5j / mu0
            out[0][minus] = one
            out[1][minus] = one
            out[2][minus] = np.broadcast_to(np.array([phi, -0.5]), (npts, 2))
            out[3][minus] = np.broadcast_to(np.array([phi, +0.5]), (npts, 2))
        return out

    def coefficients(self, mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        p1l, p1r, p2l, p2r = self._basis_boundary_values(mu)
        a = {}
        for g in (+1, -1):
            wl = np.conj(self._w[(g, -0.5)])
            wr = np.conj(self._w[(g, +0.5)])
            mat = np.empty(mu.shape + (2, 2), dtype=complex)
            mat[:, 0, 0] = p1l @ wl
            mat[:, 0, 1] = p2l @ wl
            mat[:, 1, 0] = p1r @ wr
            mat[:, 1, 1] = p2r @ wr
            a[g] = mat
        b_rep = a[-1] @ np.linalg.inv(a[+1])
        bmat = np.conj(self._q[-1])[:, None] * b_rep * self._q[+1]
        off = np.maximum(
            np.abs(bmat[:, 0, 0] - bmat[:, 1, 1]), np.abs(bmat[:, 0, 1] - bmat[:, 1, 0])
        )
        if np.any(off > _FORM_TOL):
            raise RuntimeError(
                f"representation kernel is {off.max():.2e} off the a I + b sx form"
            )
        c = det2(bmat)
        h = 0.5 * np.angle(c)
        h += np.pi * np.round((coefficient_arrays(mu, self.mu0)[3] - h) / np.pi)
        return (
            0.5 * (bmat[:, 0, 0] + bmat[:, 1, 1]),
            0.5 * (bmat[:, 0, 1] + bmat[:, 1, 0]),
            c,
            h,
        )

    def polar(self, mu):
        """(h, u, v) from this kernel's own (a, b, h): a e^{-ih} = u and
        b e^{-ih} = -i v, with u^2 + v^2 = |a|^2 + |b|^2 = 1."""
        a, b, _, h = self.coefficients(mu)
        turn = np.exp(-1j * h)
        return h, (a * turn).real, -(b * turn).imag

    def spectral_values(self, mu, u: UnitaryBC | InvariantTriple) -> np.ndarray:
        return spectral_function(*self.coefficients(mu)[:3], u)

    def turning_points(self, lo: float, hi: float, limit: int) -> np.ndarray:
        return turning_points(lo, hi, self.mu0, limit)

    def special_points(self) -> tuple[float, ...]:
        if self.mu0 > 0:
            return (-self.mu0, self.mu0)
        return (0.0,)
