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
built here in closed form from one frame per representation, the
eigenvectors of alpha, and a spectral kernel assembled entirely in a
non-standard representation is provided to verify that spectra do not
depend on the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bc import InvariantTriple, UnitaryBC, from_matrix, spectral_function
from .dirac import DiracKernel, coefficient_arrays
from .matalg import I2, SX, SZ, det2

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


def _frame(rep: CliffordRep) -> np.ndarray:
    """Columns (e, beta e), e the +1 eigenvector of alpha: the unitary F
    with alpha = F sz F^H and beta = F sx F^H."""
    e = np.linalg.eigh(rep.alpha)[1][:, 1]
    return np.column_stack([e, rep.beta @ e])


def representation_transform(rep_from: CliffordRep, rep_to: CliffordRep) -> np.ndarray:
    """A unitary V with V alpha V^H = alpha', V beta V^H = beta'.

    In its frame (:func:`_frame`) every representation reads alpha = sz,
    beta = sx, so V = F' F^H.  V is unique up to a global phase, which
    every use here cancels.  No iterative solver is involved; failure of
    the final verification is a defect.
    """
    v = _frame(rep_to) @ _frame(rep_from).conj().T
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


#: Taylor degree of the scaled exponential; each scaled matrix has a
#: 1-norm of at most 1, so the series' remainder is below 1e-17 (~1/19!)
_TAYLOR_DEGREE = 18


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over batches of 2x2 matrices, as a sum of two outer
    products (several times faster than matmul's loop over the batch)."""
    return x[..., :, :1] * y[..., :1, :] + x[..., :, 1:] * y[..., 1:, :]


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) over a batch of 2x2 matrices (..., 2, 2), by scaling and
    squaring a Taylor series.

    Each matrix is divided by its own power of two 2^s, so its 1-norm is
    at most 1, summed by Horner's rule to degree :data:`_TAYLOR_DEGREE`
    and squared s times; a value therefore does not depend on the rest
    of the batch.
    """
    _, s = np.frexp(np.max(np.sum(np.abs(m), axis=-2), axis=-1))
    s = np.maximum(s, 0)
    m = m * np.ldexp(1.0, -s)[..., None, None]
    x = I2 + m / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        x = I2 + _mul(m, x) / k
    for j in range(int(s.max(initial=0))):
        x = np.where((s > j)[..., None, None], _mul(x, x), x)
    return x


class RepKernel(DiracKernel):
    """Relativistic kernel assembled in an arbitrary representation.

    Basis solutions of the eigenvalue equation are transported from the
    standard representation with V^H, projected onto the representation's
    own endpoint eigenvectors to build A_pm, and combined into
    B' = A_minus A_plus^{-1}.  The same phases Q_pm that
    :func:`bc_in_rep` uses carry B' back to the standard basis,
    B = Q_-^H B' Q_+, which must come out as a I + b sx; the
    coefficients then go through the same protocol as the closed-form
    kernels, with the polar form (h, u, v) derived from them, so spectra
    are searched with the standard U.

    The basis solutions are the columns of the propagator exp(x G) of
    the standard-representation equation psi' = G psi, G = [[0, i (mu +
    mu0)], [i (mu - mu0), 0]], at x = +-1/2, summed by :func:`_expm`:
    one route at every energy, regular at the gap edges, with no
    wavenumber and no trigonometric function.  The exponent is shifted
    by -(kappa / 2) I, kappa = sqrt(max(0, mu0^2 - mu^2)), which scales
    the in-gap columns by e^{-kappa/2} so they stay finite (B is
    invariant under that scaling).  What this kernel shares with the
    closed form is the branch of the half phase h, the value of
    arg(c)/2 + n pi nearest the closed-form lift, and the energies a
    search samples (``turning_points``, inherited with the rest of the
    protocol from :class:`~ring_spectra.dirac.DiracKernel`).
    """

    def __init__(self, rep: CliffordRep, mu0: float):
        super().__init__(mu0)
        self._rep = rep
        v = representation_transform(rep, DIRAC_REP)
        # <e_g(s)| V^H Psi_D(s)> = <(V e_g(s))| Psi_D(s)>: row (g, side) of
        # the conjugated projections, g = +1 then -1, side -1/2 then +1/2
        ends = [boundary_eigvecs(rep, side) for side in (-0.5, +0.5)]
        self._w = np.conj([[v @ e[g] for e in ends] for g in (0, 1)])
        self._q = _boundary_phases(rep)

    @property
    def rep(self) -> CliffordRep:
        """The representation the kernel is assembled in, fixed for its lifetime."""
        return self._rep

    def coefficients(self, mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        mu0 = self.mu0
        kappa = np.sqrt(np.maximum(0.0, mu0 * mu0 - mu * mu))
        # the exponents x G - (kappa / 2) I at x = -1/2 and +1/2, (2, n, 2, 2)
        x = np.array([[-0.5], [0.5]])
        gen = np.zeros((2,) + mu.shape + (2, 2), dtype=complex)
        gen[..., 0, 0] = gen[..., 1, 1] = -0.5 * kappa
        gen[..., 0, 1] = 1j * x * (mu + mu0)
        gen[..., 1, 0] = 1j * x * (mu - mu0)
        # A_g, row per endpoint: <w_g(side)| exp(side G)>
        a_plus, a_minus = np.einsum("gri,rnij->gnrj", self._w, _expm(gen))
        b_rep = a_minus @ np.linalg.inv(a_plus)
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
        h += np.pi * np.round((coefficient_arrays(mu, mu0)[3] - h) / np.pi)
        return (
            0.5 * (bmat[:, 0, 0] + bmat[:, 1, 1]),
            0.5 * (bmat[:, 0, 1] + bmat[:, 1, 0]),
            c,
            h,
        )

    def spectral_values(self, mu, u: UnitaryBC | InvariantTriple) -> np.ndarray:
        """F_U from this kernel's own (a, b, c)."""
        return spectral_function(*self.coefficients(mu)[:3], u)

    def polar(self, mu):
        """(h, u, v) from this kernel's own (a, b, h): a e^{-ih} = u and
        b e^{-ih} = -i v, with u^2 + v^2 = |a|^2 + |b|^2 = 1."""
        a, b, _, h = self.coefficients(mu)
        turn = np.exp(-1j * h)
        return h, (a * turn).real, -(b * turn).imag

    def __repr__(self) -> str:
        return f"RepKernel(mu0={self.mu0:.6g})"
