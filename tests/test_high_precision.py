"""High-precision cross-check of reported spectra.

The spectral functions are re-implemented here in 50-digit arithmetic
(mpmath), sharing no code with the package, by two routes: the closed
formulas for (a, b, c), divided by the wavenumber so they are regular
at zero wavenumber, and the transfer matrix B = A_minus A_plus^{-1}
built from the propagator exp(x G) of each theory's first-order system
(``mp.expm``), which involves no wavenumber and no trigonometric
function.  |F| evaluated at a reported root measures the *true*
residual slope * (root error), so this catches both formula
transcription slips and root-location drift that double-precision
self-consistency checks could miss.
"""

import mpmath as mp
import numpy as np
import pytest

from ring_spectra import bc
from ring_spectra.dirac import DiracKernel
from ring_spectra.roots import find_spectrum
from ring_spectra.schrod import SchrodKernel

mp.mp.dps = 50
I = mp.mpc(0, 1)


def triple_mp(u):
    m = [[mp.mpc(u.matrix[i, j]) for j in range(2)] for i in range(2)]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    tr = m[0][0] + m[1][1]
    tr_sx = m[0][1] + m[1][0]
    return det, tr, tr_sx


def f_mp(coefficients, u):
    """F_U = det U - a tr U + b tr(U sx) + c."""
    a, b, c = coefficients
    det, tr, tr_sx = triple_mp(u)
    return det - a * tr + b * tr_sx + c


def _sinc(k):
    """sin K / K in 50 digits, with its limit 1 at K = 0, where the
    closed form's (a, b, c) are the limit of the generic formula."""
    return mp.sin(k) / k if k else mp.mpf(1)


def dirac_mp(mu, mu0):
    """(a, b, c) from the closed formulas divided by K: with S = sin K / K,
    d / K = mu S - i cos K."""
    mu, mu0 = mp.mpf(mu), mp.mpf(mu0)
    k = mp.sqrt(mp.mpc(mu * mu - mu0 * mu0))
    s = _sinc(k)
    d = mu * s - I * mp.cos(k)
    return mu0 * s / d, -I / d, (mu * s + I * mp.cos(k)) / d


def schrod_mp(e):
    """(a, b, c) from the closed formulas divided by q: with S = sin q / q,
    D_S / q = (1 + e) S - 2 i cos q."""
    e = mp.mpf(e)
    q = mp.sqrt(mp.mpc(e))
    s = _sinc(q)
    d = (1 + e) * s - 2 * I * mp.cos(q)
    return (e - 1) * s / d, 2 * I / d, ((1 + e) * s + 2 * I * mp.cos(q)) / d


def transfer_mp(gen, plus, minus):
    """(a, b, c) of B = A_minus A_plus^{-1} from the propagator exp(x gen).

    The basis solutions are the columns of exp(x gen) at the ends
    x = -1/2 and +1/2; row j of A_pm is the row vector plus[j] or
    minus[j] (the boundary data at end j) times the propagator there.
    """
    ends = (mp.expm(-gen / 2), mp.expm(gen / 2))

    def rows(vecs):
        return mp.matrix(
            [[sum(v[i] * end[i, j] for i in range(2)) for j in range(2)] for v, end in zip(vecs, ends)]
        )

    b = rows(minus) * rows(plus) ** -1
    return (b[0, 0] + b[1, 1]) / 2, (b[0, 1] + b[1, 0]) / 2, mp.det(b)


def dirac_expm_mp(mu, mu0):
    """psi' = G psi with G = i sx (mu - mu0 sz); the boundary data are
    the projections 2^{-1/2} (1, -+1) at x = -1/2 and (1, +-1) at
    x = +1/2 (the common factor cancels in B)."""
    mu, mu0 = mp.mpf(mu), mp.mpf(mu0)
    gen = mp.matrix([[0, I * (mu + mu0)], [I * (mu - mu0), 0]])
    return transfer_mp(gen, ((1, -1), (1, 1)), ((1, 1), (1, -1)))


def schrod_expm_mp(e):
    """(psi, psi')' = [[0, 1], [-e, 0]] (psi, psi'); the boundary data are
    +-i psi + psi'_out, with the outward derivative psi'_out = -psi' at
    x = -1/2 and +psi' at x = +1/2."""
    gen = mp.matrix([[0, 1], [-mp.mpf(e), 0]])
    return transfer_mp(gen, ((I, -1), (I, 1)), ((-I, -1), (-I, 1)))


def test_dirac_roots_are_true_zeros():
    rng = np.random.default_rng(81)
    mu0 = 1.0
    kernel = DiracKernel(mu0)
    for _ in range(5):
        u = bc.random_unitary_bc(rng)
        s = find_spectrum(u, (-8.0, 8.0), kernel)
        assert len(s.roots) > 0
        for r in s.roots:
            for abc in (dirac_mp(r.x, mu0), dirac_expm_mp(r.x, mu0)):
                assert abs(f_mp(abc, u)) < 5e-10


def test_dirac_in_gap_bound_states_are_true_zeros():
    mu0 = 3.0
    kernel = DiracKernel(mu0)
    u = bc.named_family("chiral", 2.0)
    s = find_spectrum(u, (-2.999, 2.999), kernel)
    assert len(s.roots) == 2  # two bound states strictly inside the gap
    for r in s.roots:
        for abc in (dirac_mp(r.x, mu0), dirac_expm_mp(r.x, mu0)):
            assert abs(f_mp(abc, u)) < 5e-11


def test_dirac_gap_edge_roots_are_true_zeros():
    # mu0 = 100, from just inside the gap to K ~ 173: the window the
    # turning points sample, where the tracks are staircases
    rng = np.random.default_rng(3)
    mu0 = 100.0
    kernel = DiracKernel(mu0)
    for _ in range(3):
        u = bc.random_unitary_bc(rng)
        s = find_spectrum(u, (mu0 - 1.0, mu0 + 100.0), kernel)
        assert len(s.roots) > 40
        for r in s.roots:
            for abc in (dirac_mp(r.x, mu0), dirac_expm_mp(r.x, mu0)):
                assert abs(f_mp(abc, u)) < 1e-9


def test_schrod_roots_are_true_zeros():
    rng = np.random.default_rng(82)
    kernel = SchrodKernel()
    for _ in range(5):
        u = bc.random_unitary_bc(rng)
        s = find_spectrum(u, (-20.0, 80.0), kernel)
        for r in s.roots:
            for abc in (schrod_mp(r.x), schrod_expm_mp(r.x)):
                assert abs(f_mp(abc, u)) < 5e-10


def _near_edges(mu0):
    """Energies at and around the gap edges +-mu0: mu0 itself, 1 ulp to
    either side and a relative 1e-13 to either side, on both edges."""
    near = [mu0, np.nextafter(mu0, np.inf), np.nextafter(mu0, 0.0),
            mu0 * (1 + 1e-13), mu0 * (1 - 1e-13)]
    return [(sign * mu, mu0) for mu in near for sign in (1.0, -1.0)]


#: energies at the zero-wavenumber point and within 1e-13 of it, where
#: the closed form must hold to the same digits as anywhere else
ZERO_WAVENUMBER_MU = [point for mu0 in (1.0, 1e3, 2.6e6) for point in _near_edges(mu0)]
ZERO_WAVENUMBER_E = [0.0, 1e-13, -1e-13, 5e-324, -5e-324]


def assert_close(got, *references, tol=1e-14):
    """Every double in ``got`` within ``tol`` of each 50-digit reference."""
    for reference in references:
        for value, exact in zip(got, reference):
            assert abs(complex(exact) - value) < tol


@pytest.mark.parametrize(
    "mu,mu0",
    [pytest.param(mu, 1.0, id=str(mu)) for mu in (-4.8, -1.0 + 1e-7, 0.3, 0.999, 2.5, 7.0)]
    + ZERO_WAVENUMBER_MU,
)
def test_dirac_kernel_matches_high_precision(mu, mu0):
    # coefficients, not just roots: the double-precision kernel agrees
    # with 50-digit evaluation to ~1e-15 everywhere, including just
    # inside the gap edge and on it, by both routes
    a, b, c, _ = (v[0] for v in DiracKernel(mu0).coefficients(np.array([mu])))
    assert_close((a, b, c), dirac_mp(mu, mu0), dirac_expm_mp(mu, mu0))


@pytest.mark.parametrize(
    "e", [-1e8, -1e4, -50.0, -2.0, -1.0, -1.0 + 1e-9, 1e-8, 0.5, 42.0, 333.0] + ZERO_WAVENUMBER_E
)
def test_schrod_kernel_matches_high_precision(e):
    a, b, c, _ = (v[0] for v in SchrodKernel().coefficients(np.array([e])))
    assert_close((a, b, c), schrod_mp(e), schrod_expm_mp(e))


def _half_phase_gap(h, c_mp) -> float:
    """|e^{2ih} - c| in 50 digits, relative to the size of h."""
    return float(abs(mp.exp(2j * mp.mpf(h)) - c_mp)) / max(1.0, abs(h))


@pytest.mark.parametrize(
    "mu,mu0",
    [(1e6, 0.0), (-1e6, 0.0), (1e6, 1.0), (-999999.5, 1.0), (1e6, 1e3), (-1e6, 1e3),
     (1e3 * (1 + 1e-9), 1e3), (3e5, 1e6), (-999000.0, 1e6), (0.0, 1e6), (1e6 * (1 - 1e-9), 1e6)]
    + ZERO_WAVENUMBER_MU,
)
def test_dirac_half_phase_matches_high_precision(mu, mu0):
    # the lifted half phase at extreme energies: e^{2ih} = c to a few ulp
    # of h, and h on the branch its regime puts it (so the lift holds).
    # The wavenumber is the exact 50-digit one, so the kernel's own
    # wavenumber (including at the gap edges) counts against it
    h = float(DiracKernel(mu0).coefficients(np.array([mu]))[3][0])
    for c in (dirac_mp(mu, mu0)[2], dirac_expm_mp(mu, mu0)[2]):
        assert _half_phase_gap(h, c) < 1e-15
    if abs(mu) > mu0:
        k = mp.sqrt(mp.mpf(mu) ** 2 - mp.mpf(mu0) ** 2)
        low = -k if mu > 0 else k  # pi/2 -+ (K + atan(...)) with |atan| < pi/2
    else:
        low = 0.0  # pi/2 - atan(...)
    assert low < h < low + mp.pi


@pytest.mark.parametrize(
    "e", [-1e10, -1e4, -1e-9, 1e-9, 0.5, 1e4, 12345.678, 1e8, 1e10] + ZERO_WAVENUMBER_E
)
def test_schrod_half_phase_matches_high_precision(e):
    h = float(SchrodKernel().coefficients(np.array([e]))[3][0])
    for c in (schrod_mp(e)[2], schrod_expm_mp(e)[2]):
        assert _half_phase_gap(h, c) < 1e-15
    low = -mp.mpf(float(np.sqrt(e))) if e > 0 else 0.0
    # pi/2 - q - atan(...), or pi - atan2(2 kappa, ...) with the atan2 in (0, pi)
    assert low < h < low + mp.pi
