"""High-precision cross-check of reported spectra.

The spectral functions are re-implemented here in 50-digit arithmetic
(mpmath), straight from the defining formulas and sharing no code with
the package.  |F| evaluated at a reported root measures the *true*
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


def triple_mp(u):
    m = [[mp.mpc(u.matrix[i, j]) for j in range(2)] for i in range(2)]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    tr = m[0][0] + m[1][1]
    tr_sx = m[0][1] + m[1][0]
    return det, tr, tr_sx


def dirac_f_mp(mu, mu0, u):
    mu = mp.mpf(mu)
    mu0 = mp.mpf(mu0)
    if abs(mu) >= mu0:
        k = mp.sqrt(mu * mu - mu0 * mu0)
    else:
        k = mp.mpc(0, 1) * mp.sqrt(mu0 * mu0 - mu * mu)
    d = mu * mp.sin(k) - mp.mpc(0, 1) * k * mp.cos(k)
    a = mu0 * mp.sin(k) / d
    b = -mp.mpc(0, 1) * k / d
    c = (mu * mp.sin(k) + mp.mpc(0, 1) * k * mp.cos(k)) / d
    det, tr, tr_sx = triple_mp(u)
    return det - a * tr + b * tr_sx + c


def schrod_f_mp(e, u):
    e = mp.mpf(e)
    q = mp.sqrt(mp.mpc(e))
    d = (1 + e) * mp.sin(q) - 2 * mp.mpc(0, 1) * q * mp.cos(q)
    a = (e - 1) * mp.sin(q) / d
    b = 2 * mp.mpc(0, 1) * q / d
    c = ((1 + e) * mp.sin(q) + 2 * mp.mpc(0, 1) * q * mp.cos(q)) / d
    det, tr, tr_sx = triple_mp(u)
    return det - a * tr + b * tr_sx + c


def test_dirac_roots_are_true_zeros():
    rng = np.random.default_rng(81)
    mu0 = 1.0
    kernel = DiracKernel(mu0)
    for _ in range(5):
        u = bc.random_unitary_bc(rng)
        s = find_spectrum(u, (-8.0, 8.0), kernel)
        assert len(s.roots) > 0
        for r in s.roots:
            x = r.x
            # the generic formula is 0/0 at the zero-wavenumber points;
            # B is continuous there, so probe a hair away
            if abs(abs(x) - mu0) < 1e-11:
                x = np.sign(x) * (mu0 + 1e-25)
            assert abs(dirac_f_mp(x, mu0, u)) < 5e-10


def test_dirac_in_gap_bound_states_are_true_zeros():
    mu0 = 3.0
    kernel = DiracKernel(mu0)
    u = bc.named_family("chiral", 2.0)
    s = find_spectrum(u, (-2.999, 2.999), kernel)
    assert len(s.roots) == 2  # two bound states strictly inside the gap
    for r in s.roots:
        assert abs(dirac_f_mp(r.x, mu0, u)) < 5e-11


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
            x = mu0 + 1e-25 if abs(r.x - mu0) < 1e-9 else r.x
            assert abs(dirac_f_mp(x, mu0, u)) < 1e-9


def test_schrod_roots_are_true_zeros():
    rng = np.random.default_rng(82)
    kernel = SchrodKernel()
    for _ in range(5):
        u = bc.random_unitary_bc(rng)
        s = find_spectrum(u, (-20.0, 80.0), kernel)
        for r in s.roots:
            e = 1e-25 if abs(r.x) < 1e-11 else r.x
            assert abs(schrod_f_mp(e, u)) < 5e-10


def _sinc(k):
    """sin K / K in 50 digits, with its limit 1 at K = 0, where the
    closed form's (a, b, c) are the limit of the generic formula."""
    return mp.sin(k) / k if k else mp.mpf(1)


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


@pytest.mark.parametrize(
    "mu,mu0",
    [pytest.param(mu, 1.0, id=str(mu)) for mu in (-4.8, -1.0 + 1e-7, 0.3, 0.999, 2.5, 7.0)]
    + ZERO_WAVENUMBER_MU,
)
def test_dirac_kernel_matches_high_precision(mu, mu0):
    # coefficients, not just roots: the double-precision kernel agrees
    # with 50-digit evaluation to ~1e-15 everywhere, including just
    # inside the gap edge and on it.  Divided by K, the formula is
    # regular at K = 0: d / K = mu S - i cos K with S = sin K / K
    from ring_spectra.dirac import coefficient_arrays

    a, b, c, _ = (v[0] for v in coefficient_arrays(np.array([mu]), mu0))
    mpmu, mpmu0 = mp.mpf(mu), mp.mpf(mu0)
    if abs(mpmu) >= mpmu0:
        k = mp.sqrt(mpmu**2 - mpmu0**2)
    else:
        k = mp.mpc(0, 1) * mp.sqrt(mpmu0**2 - mpmu**2)
    s = _sinc(k)
    d = mpmu * s - mp.mpc(0, 1) * mp.cos(k)
    a_mp = mpmu0 * s / d
    b_mp = -mp.mpc(0, 1) / d
    c_mp = (mpmu * s + mp.mpc(0, 1) * mp.cos(k)) / d
    assert abs(complex(a_mp) - a) < 1e-14
    assert abs(complex(b_mp) - b) < 1e-14
    assert abs(complex(c_mp) - c) < 1e-14


@pytest.mark.parametrize(
    "e", [-1e8, -1e4, -50.0, -2.0, -1.0, -1.0 + 1e-9, 1e-8, 0.5, 42.0, 333.0] + ZERO_WAVENUMBER_E
)
def test_schrod_kernel_matches_high_precision(e):
    # divided by q, D_S / q = (1 + e) S - 2 i cos q with S = sin q / q,
    # regular at e = 0
    from ring_spectra.schrod import coefficient_arrays

    a, b, c, _ = (v[0] for v in coefficient_arrays(np.array([e])))
    ee = mp.mpf(e)
    q = mp.sqrt(mp.mpc(ee))
    s = _sinc(q)
    d = (1 + ee) * s - 2 * mp.mpc(0, 1) * mp.cos(q)
    a_mp = (ee - 1) * s / d
    b_mp = 2 * mp.mpc(0, 1) / d
    c_mp = ((1 + ee) * s + 2 * mp.mpc(0, 1) * mp.cos(q)) / d
    assert abs(complex(a_mp) - a) < 1e-14
    assert abs(complex(b_mp) - b) < 1e-14
    assert abs(complex(c_mp) - c) < 1e-14


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
    from ring_spectra.dirac import coefficient_arrays

    h = float(coefficient_arrays(np.array([mu]), mu0)[3][0])
    mpmu, mpmu0 = mp.mpf(mu), mp.mpf(mu0)
    if abs(mu) > mu0:
        k = mp.sqrt(mpmu**2 - mpmu0**2)
        low = -k if mu > 0 else k  # pi/2 -+ (K + atan(...)) with |atan| < pi/2
    else:
        k = mp.mpc(0, 1) * mp.sqrt(mpmu0**2 - mpmu**2)
        low = 0.0  # pi/2 - atan(...)
    d = mpmu * _sinc(k) - mp.mpc(0, 1) * mp.cos(k)
    c = (mpmu * _sinc(k) + mp.mpc(0, 1) * mp.cos(k)) / d
    assert _half_phase_gap(h, c) < 1e-15
    assert low < h < low + mp.pi


@pytest.mark.parametrize(
    "e", [-1e10, -1e4, -1e-9, 1e-9, 0.5, 1e4, 12345.678, 1e8, 1e10] + ZERO_WAVENUMBER_E
)
def test_schrod_half_phase_matches_high_precision(e):
    from ring_spectra.schrod import coefficient_arrays

    h = float(coefficient_arrays(np.array([e]))[3][0])
    ee = mp.mpf(e)
    if e > 0:
        q = mp.mpf(float(np.sqrt(e)))
        low = -q  # pi/2 - q - atan(...)
    else:
        q = mp.mpc(0, 1) * mp.mpf(float(np.sqrt(-e)))
        low = 0.0  # pi - atan2(2 kappa, ...) with the atan2 in (0, pi)
    d = (1 + ee) * _sinc(q) - 2 * mp.mpc(0, 1) * mp.cos(q)
    c = ((1 + ee) * _sinc(q) + 2 * mp.mpc(0, 1) * mp.cos(q)) / d
    assert _half_phase_gap(h, c) < 1e-15
    assert low < h < low + mp.pi
