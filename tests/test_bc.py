"""Tests for the boundary-condition space and its text format."""

import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ring_spectra.bc import (
    BCConstraintError,
    BCParseError,
    UnitaryBC,
    _chart_matrix,
    conjugate_orbit,
    from_matrix,
    invariant_triple,
    is_parity_symmetric,
    named_family,
    parse_bc,
    random_unitary_bc,
)
from ring_spectra.matalg import I2, SX, NonUnitaryError


def triple_tuple(u):
    t = invariant_triple(u)
    return t.det_u, t.tr_u, t.tr_u_sx


def test_from_matrix_identity():
    u = from_matrix(I2)
    assert u.eta == 0.0
    assert u.m0 == pytest.approx(1.0)
    assert np.allclose(u.m, 0.0)


def test_from_matrix_pseudo_periodic_chart():
    # U_pp(0) has det = -1, so eta = pi/2 and e^{-i pi/2} U = i sx
    u = from_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex))
    assert u.eta == pytest.approx(np.pi / 2)
    assert u.m0 == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(u.m, [1.0, 0.0, 0.0], atol=1e-15)


def test_from_matrix_scalar_phase():
    u = from_matrix(np.exp(1j * np.pi / 4) * I2)
    assert u.eta == pytest.approx(np.pi / 4)
    assert u.m0 == pytest.approx(1.0)


def test_from_matrix_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_chart_roundtrip_random():
    rng = np.random.default_rng(10)
    for _ in range(10_000):
        u = random_unitary_bc(rng)
        again = from_matrix(u.matrix)
        assert again.eta == pytest.approx(u.eta, abs=1e-12)
        assert again.m0 == pytest.approx(u.m0, abs=1e-12)
        assert np.allclose(again.m, u.m, atol=1e-12)


def test_named_family_verbatim_matrices():
    alpha = 0.7
    assert np.allclose(named_family("robin", alpha).matrix, np.exp(1j * alpha) * I2)
    assert np.allclose(named_family("chiral", alpha).matrix, np.exp(1j * alpha) * I2)
    assert np.allclose(
        named_family("pp", alpha).matrix,
        [[0, -np.exp(-1j * alpha)], [-np.exp(1j * alpha), 0]],
    )
    assert np.allclose(
        named_family("dpp", alpha).matrix,
        [[0, np.exp(-1j * alpha)], [np.exp(1j * alpha), 0]],
    )
    assert np.allclose(
        named_family("qp", alpha).matrix,
        [[-np.sin(alpha), 1j * np.cos(alpha)], [-1j * np.cos(alpha), np.sin(alpha)]],
    )
    assert np.allclose(named_family("parity", eta=0.0, theta=0.0).matrix, I2)


def test_named_family_alpha_reduced_mod_2pi():
    a = named_family("qp", 0.3)
    b = named_family("qp", 0.3 + 2 * np.pi)
    assert np.allclose(a.matrix, b.matrix)


def test_named_family_unknown_name():
    with pytest.raises(ValueError):
        named_family("moebius", 0.1)


def test_named_family_missing_parameters():
    with pytest.raises(ValueError):
        named_family("parity", eta=0.3)  # theta missing
    with pytest.raises(ValueError):
        named_family("qp")  # alpha missing


def test_unitary_bc_direct_construction_validates():
    with pytest.raises(ValueError):
        UnitaryBC(I2, eta=0.0, m0=0.5, m=np.zeros(3))  # not a unit 4-vector
    with pytest.raises(ValueError):
        UnitaryBC(I2, eta=0.3, m0=1.0, m=np.zeros(3))  # chart mismatch


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["eta", "m0", "m1", "m2", "m3"])
def test_unitary_bc_rejects_a_chart_that_is_not_finite(field, bad):
    # NaN passes a `>= tol` test; every invariant is checked as `not < tol`
    u = random_unitary_bc(np.random.default_rng(14))
    chart = {"eta": u.eta, "m0": u.m0, "m": u.m.copy()}
    if field in chart:
        chart[field] = bad
    else:
        chart["m"][int(field[1]) - 1] = bad
    with pytest.raises(BCConstraintError):
        UnitaryBC(u.matrix, **chart)


def test_qp_invariant_triple_is_family_constant():
    # the algebraic seed of the quasi-periodic isospectral family
    for alpha in np.linspace(0.0, 2 * np.pi, 17, endpoint=False):
        det_u, tr_u, tr_u_sx = triple_tuple(named_family("qp", alpha))
        assert det_u == pytest.approx(-1.0)
        assert abs(tr_u) < 1e-15
        assert abs(tr_u_sx) < 1e-15


def test_pp_invariant_triple():
    det_u, tr_u, tr_u_sx = triple_tuple(named_family("pp", 0.0))
    assert det_u == pytest.approx(-1.0)
    assert abs(tr_u) < 1e-15
    assert tr_u_sx == pytest.approx(-2.0)


def test_qp_example_triple():
    det_u, tr_u, tr_u_sx = triple_tuple(named_family("qp", 0.0))
    assert (det_u, abs(tr_u), abs(tr_u_sx)) == pytest.approx((-1.0, 0.0, 0.0))


def test_conjugate_orbit_qp_shift():
    # e^{i lam sx} U_qp(a) e^{-i lam sx} = U_qp(a - 2 lam)
    for alpha, lam in [(0.0, 0.3), (1.2, 1.0), (4.0, 2.2)]:
        left = conjugate_orbit(named_family("qp", alpha), lam)
        right = named_family("qp", alpha - 2 * lam)
        assert np.max(np.abs(left.matrix - right.matrix)) < 1e-14


def test_conjugate_orbit_lambda_zero():
    rng = np.random.default_rng(11)
    u = random_unitary_bc(rng)
    assert np.max(np.abs(conjugate_orbit(u, 0.0).matrix - u.matrix)) < 1e-15
    assert np.max(np.abs(conjugate_orbit(u, np.pi).matrix - u.matrix)) < 1e-15


def test_conjugate_orbit_turns_the_chart():
    # (eta, m0, m1) are kept bit for bit, and the matrix is G U G^H for
    # G = e^{i lam sx}
    rng = np.random.default_rng(15)
    for _ in range(200):
        u = random_unitary_bc(rng)
        lam = rng.uniform(0.0, np.pi)
        v = conjugate_orbit(u, lam)
        assert (v.eta, v.m0, v.m[0]) == (u.eta, u.m0, u.m[0])
        g = np.cos(lam) * I2 + 1j * np.sin(lam) * SX
        assert np.max(np.abs(v.matrix - g @ u.matrix @ g.conj().T)) < 1e-15


def test_orbit_members_are_read_only_frozen_and_checked():
    # every member comes out of the checked constructor: read-only arrays,
    # frozen fields, and a lambda that breaks the chart raises as the
    # constructor does
    u = random_unitary_bc(np.random.default_rng(16))
    v = conjugate_orbit(u, 0.3)
    assert not v.matrix.flags.writeable and not v.m.flags.writeable
    with pytest.raises(FrozenInstanceError):
        v.eta = 0.0
    with pytest.raises(NonUnitaryError) as member:
        conjugate_orbit(u, np.nan)
    with pytest.raises(NonUnitaryError) as single:
        UnitaryBC(_chart_matrix(u.eta, u.m0, (u.m[0], np.nan, np.nan)), u.eta, u.m0,
                  (u.m[0], np.nan, np.nan))
    assert str(member.value) == str(single.value)


@settings(deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-np.pi, np.pi), b=st.floats(-np.pi, np.pi))
def test_orbit_members_compose_as_a_u1_action_of_period_pi(seed, a, b):
    # turning by a then by b keeps (eta, m0, m1) to the bit and lands on
    # the turn by a + b, and a turn by pi is the identity, up to the
    # rounding of a + b and of the cosines and sines (1.0e-15 worst over
    # 20,000 random draws)
    u = random_unitary_bc(np.random.default_rng(seed))
    v = conjugate_orbit(conjugate_orbit(u, a), b)
    assert (v.eta, v.m0, v.m[0]) == (u.eta, u.m0, u.m[0])
    for got, want in ((v, conjugate_orbit(u, a + b)),
                      (conjugate_orbit(u, a + np.pi), conjugate_orbit(u, a))):
        assert np.max(np.abs(got.matrix - want.matrix)) <= 4e-15
        assert np.max(np.abs(got.m - want.m)) <= 4e-15


def test_parity_family_is_orbit_fixed_point():
    u = named_family("parity", eta=0.4, theta=2.2)
    for lam in (0.1, 0.7, 2.3):
        assert np.max(np.abs(conjugate_orbit(u, lam).matrix - u.matrix)) < 1e-14


def test_orbit_preserves_invariant_triple():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        u = random_unitary_bc(rng)
        lam = rng.uniform(0.0, np.pi)
        t1 = triple_tuple(u)
        t2 = triple_tuple(conjugate_orbit(u, lam))
        assert max(abs(a - b) for a, b in zip(t1, t2)) < 1e-12


def test_is_parity_symmetric_examples():
    assert is_parity_symmetric(named_family("robin", 1.3))
    assert is_parity_symmetric(named_family("parity", eta=0.3, theta=1.1))
    # U_qp(pi/2) = diag(-1, 1) anticommutes with sx
    u = named_family("qp", np.pi / 2)
    assert np.allclose(u.matrix, np.diag([-1.0, 1.0]))
    assert not is_parity_symmetric(u)
    comm = u.matrix @ SX - SX @ u.matrix
    assert np.linalg.norm(comm) == pytest.approx(2 * np.sqrt(2))


def test_parity_flag_iff_orbit_fixed():
    rng = np.random.default_rng(13)
    tol = 1e-10
    samples = [random_unitary_bc(rng) for _ in range(200)]
    samples += [named_family("parity", eta=rng.uniform(0, np.pi), theta=rng.uniform(0, 2 * np.pi)) for _ in range(50)]
    for u in samples:
        moved = max(
            np.max(np.abs(conjugate_orbit(u, lam).matrix - u.matrix))
            for lam in (0.1, 0.7, 2.3)
        )
        assert is_parity_symmetric(u, tol) == (moved < 10 * tol)


def test_parse_bc_families_match_constructors():
    assert np.allclose(parse_bc("qp:alpha=0.25").matrix, named_family("qp", 0.25).matrix)
    assert np.allclose(parse_bc("robin:alpha=1e-1").matrix, named_family("robin", 0.1).matrix)
    assert np.allclose(parse_bc("pp:alpha=0.5").matrix, named_family("pp", 0.5).matrix)
    assert np.allclose(parse_bc("dpp:alpha=0.5").matrix, named_family("dpp", 0.5).matrix)
    assert np.allclose(parse_bc("chiral:alpha=2").matrix, named_family("chiral", 2.0).matrix)
    assert np.allclose(
        parse_bc("parity:eta=0.3,theta=1.1").matrix,
        named_family("parity", eta=0.3, theta=1.1).matrix,
    )


def test_parse_bc_u2_and_mat():
    u = parse_bc("u2:eta=0.5,m0=1,m1=0,m2=0,m3=0")
    assert np.allclose(u.matrix, np.exp(0.5j) * I2)
    v = parse_bc("mat:0,0,1,0,1,0,0,0")
    assert np.allclose(v.matrix, SX)


def test_parse_bc_error_classes():
    with pytest.raises(BCParseError):
        parse_bc("qp")  # no parameters
    with pytest.raises(BCParseError):
        parse_bc("qp:beta=1")  # unknown key
    with pytest.raises(BCParseError):
        parse_bc("mat:1,2,3")  # wrong arity
    with pytest.raises(BCConstraintError):
        parse_bc("u2:eta=0,m0=1,m1=1,m2=0,m3=0")  # off the sphere
    with pytest.raises(NonUnitaryError):
        parse_bc("mat:1,0,1,0,0,0,1,0")  # not unitary


@pytest.mark.parametrize("text", [
    "qp:alpha=1e999",
    "u2:eta=1e999,m0=1,m1=0,m2=0,m3=0",
    "parity:eta=1e999,theta=0",
    "mat:1e999,0,0,0,0,0,1,0",
])
def test_parse_bc_refuses_numbers_that_overflow(text):
    # float('1e999') is inf, which would reach the matrix as NaN
    with pytest.raises(BCParseError, match=r"not a finite number: '1e999'"):
        parse_bc(text)


@pytest.mark.parametrize("text, error, message", [
    ("mat:1e200,0,0,0,0,0,1,0", NonUnitaryError, r"\|\|W\^H W - I\|\|_F = inf"),
    ("mat:0,0,-1e300,1e300,1,0,0,0", NonUnitaryError, r"\|\|W\^H W - I\|\|_F = inf"),
    ("u2:eta=0,m0=1e200,m1=0,m2=0,m3=0", BCConstraintError, r"\|v\|\^2 - 1 = inf"),
    ("u2:eta=0,m0=0,m1=-1e300,m2=1e300,m3=0", BCConstraintError, r"\|v\|\^2 - 1 = inf"),
])
def test_parse_bc_refuses_huge_finite_numbers_without_a_warning(text, error, message):
    # finite numbers whose squares overflow are refused as far off the
    # unitary group, with no NumPy warning from the products
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            parse_bc(text)


def test_u2_eta_canonicalized():
    u = parse_bc("u2:eta=4.0,m0=1,m1=0,m2=0,m3=0")
    assert 0.0 <= u.eta < np.pi
    assert np.allclose(u.matrix, np.exp(4.0j) * I2)
