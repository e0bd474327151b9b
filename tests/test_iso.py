"""Tests for isospectrality classification and spectrum comparison."""

import numpy as np
import pytest

from ring_spectra import bc
from ring_spectra.dirac import DiracKernel
from ring_spectra.iso import ORBIT_LAMBDAS, classify, compare_spectra, orbit_spectra
from ring_spectra.roots import find_spectrum
from ring_spectra.schrod import SchrodKernel


def test_classify_robin_is_parity_symmetric():
    result = classify(bc.named_family("robin", 1.0))
    assert result.parity_symmetric
    assert len(result.orbit_samples) == 15
    base = bc.named_family("robin", 1.0).matrix
    assert all(np.max(np.abs(s.matrix - base)) < 1e-10 for s in result.orbit_samples)


def test_classify_qp_orbit_sweeps_family():
    alpha = 0.7
    result = classify(bc.named_family("qp", alpha))
    assert not result.parity_symmetric
    for lam, sample in zip(ORBIT_LAMBDAS, result.orbit_samples):
        expect = bc.named_family("qp", alpha - 2 * lam)
        assert np.max(np.abs(sample.matrix - expect.matrix)) < 1e-12


def test_classify_parity_family_member():
    result = classify(bc.named_family("parity", eta=0.3, theta=1.1))
    assert result.parity_symmetric


def test_parity_flag_iff_orbit_fixed_points():
    rng = np.random.default_rng(71)
    for _ in range(100):
        u = bc.random_unitary_bc(rng)
        result = classify(u)
        moved = max(np.max(np.abs(s.matrix - u.matrix)) for s in result.orbit_samples)
        assert result.parity_symmetric == (moved < 1e-10)


def test_classify_samples_distinct_orbit_members():
    # the orbit has period pi: k pi / 16, k = 1..15, is one period without U
    rng = np.random.default_rng(73)
    for _ in range(20):
        u = bc.random_unitary_bc(rng)
        if bc.is_parity_symmetric(u):
            continue
        mats = [u.matrix] + [s.matrix for s in classify(u).orbit_samples]
        gaps = [np.max(np.abs(a - b)) for i, a in enumerate(mats) for b in mats[i + 1:]]
        assert min(gaps) > 1e-6


def test_canonical_tag_constant_on_orbit():
    rng = np.random.default_rng(72)
    for _ in range(50):
        u = bc.random_unitary_bc(rng)
        lam = rng.uniform(0, np.pi)
        assert classify(u).canonical_tag == classify(bc.conjugate_orbit(u, lam)).canonical_tag


def test_compare_spectra_trivial_and_mismatch():
    kernel = SchrodKernel()
    s1 = find_spectrum(bc.named_family("qp", 0.0), (0.0, 200.0), kernel)
    same = compare_spectra(s1, s1, tol=1e-12)
    assert same.equal and same.max_pairwise_gap == 0.0
    s2 = find_spectrum(bc.named_family("robin", 0.3), (0.0, 200.0), kernel)
    assert not compare_spectra(s1, s2, tol=1e-8).equal


def test_compare_spectra_quasi_periodic_family():
    kernel = SchrodKernel()
    s1 = find_spectrum(bc.named_family("qp", 0.0), (0.0, 500.0), kernel)
    s2 = find_spectrum(bc.named_family("qp", np.pi / 2), (0.0, 500.0), kernel)
    result = compare_spectra(s1, s2, tol=1e-8)
    assert result.equal


def test_compare_spectra_distinct_robin():
    kernel = SchrodKernel()
    s1 = find_spectrum(bc.named_family("robin", 0.3), (0.0, 300.0), kernel)
    s2 = find_spectrum(bc.named_family("robin", 0.9), (0.0, 300.0), kernel)
    assert not compare_spectra(s1, s2, tol=1e-4).equal


def test_compare_spectra_window_mismatch():
    kernel = SchrodKernel()
    s1 = find_spectrum(bc.named_family("qp", 0.0), (0.0, 100.0), kernel)
    s2 = find_spectrum(bc.named_family("qp", 0.0), (0.0, 200.0), kernel)
    with pytest.raises(ValueError):
        compare_spectra(s1, s2, tol=1e-8)


@pytest.mark.parametrize("kernel,window,u", [
    (DiracKernel(1.0), (-10.0, 10.0), None),
    (SchrodKernel(), (-20.0, 80.0), None),
    (SchrodKernel(), (0.0, 100.0), bc.named_family("qp", 0.4)),
], ids=["kernel0-window0", "kernel1-window1", "qp-alpha0.4"])
def test_orbit_spectra_all_equal(kernel, window, u):
    if u is None:
        u = bc.random_unitary_bc(np.random.default_rng(73))
    entries = orbit_spectra(u, window, kernel, n_lambda=6)
    assert [lam for lam, _, _ in entries] == pytest.approx(
        [k * np.pi / 6 for k in range(6)]
    )
    base = entries[0][2]
    for _, _, s in entries[1:]:
        assert compare_spectra(base, s, tol=1e-8).equal


def test_parity_pairs_distinguishable_in_window():
    # finite-window evidence for hearability of the parity family
    rng = np.random.default_rng(74)
    kernel = DiracKernel(1.0)
    window = (-10.0, 10.0)
    done = 0
    while done < 20:
        eta1, eta2 = rng.uniform(0, np.pi, size=2)
        th1, th2 = rng.uniform(0, 2 * np.pi, size=2)
        if abs(eta1 - eta2) < 1e-3 or abs(th1 - th2) < 1e-3:
            continue
        done += 1
        s1 = find_spectrum(bc.named_family("parity", eta=eta1, theta=th1), window, kernel)
        s2 = find_spectrum(bc.named_family("parity", eta=eta2, theta=th2), window, kernel)
        assert not compare_spectra(s1, s2, tol=1e-4).equal
