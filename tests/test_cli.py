"""Tests for the command-line interface: output schemas, determinism,
unit conversion, and exit codes."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from ring_spectra.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json_quasi_periodic(capsys):
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--theory", "schrod", "--bc", "qp:alpha=0", "--window", "0", "500"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theory"] == "schrod"
    assert payload["bc"] == "qp:alpha=0"
    assert payload["units"] == "dimensionless"
    values = [row["value"] for row in payload["eigenvalues"]]
    expect = np.pi**2 * (np.arange(7) + 0.5) ** 2
    assert np.allclose(values, expect, rtol=1e-10)
    assert all(row["residual"] < 1e-9 for row in payload["eigenvalues"])
    assert payload["meta"]["grid_points"] > 0
    assert payload["meta"]["tolerances"]["residual"] == 1e-9


def test_spectrum_json_dirac_pseudo_periodic(capsys):
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--theory", "dirac", "--bc", "dpp:alpha=0", "--mu0", "1",
         "--window", "-10", "10"],
    )
    assert code == 0
    payload = json.loads(out)
    values = []
    for row in payload["eigenvalues"]:
        values.extend([row["value"]] * row["multiplicity"])
    expect = sorted(
        s * np.sqrt((2 * np.pi * n) ** 2 + 1.0)
        for n in (-1, 0, 1)  # n and -n coincide for alpha = 0: multiplicity 2
        for s in (+1, -1)
    )
    assert np.allclose(sorted(values), expect, atol=1e-9)


def test_spectrum_single_mass_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--theory", "dirac", "--bc", "u2:eta=0,m0=1,m1=0,m2=0,m3=0",
         "--mu0", "1", "--window", "0.5", "1.5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eigenvalues"]) == 1
    row = payload["eigenvalues"][0]
    # localization is limited by the mass-mode snap width (1e-12)
    assert row["value"] == pytest.approx(1.0, abs=3e-12)
    assert row["multiplicity"] == 1


def test_spectrum_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--theory", "schrod", "--bc", "qp:alpha=0",
         "--window", "0", "100", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert meta and data[0] == "value,multiplicity,residual"
    first = data[1].split(",")
    assert float(first[0]) == pytest.approx(np.pi**2 / 4, rel=1e-10)
    assert first[1] == "1"


def test_byte_identical_reruns(capsys):
    argv = ["spectrum", "--theory", "dirac", "--bc", "qp:alpha=0.7", "--mu0", "0.5",
            "--window", "-5", "5"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_json_roundtrip_reproduces_floats(capsys):
    _, out, _ = run_cli(
        capsys,
        ["spectrum", "--theory", "schrod", "--bc", "robin:alpha=5.8",
         "--window", "-60", "120"],
    )
    payload = json.loads(out)
    # negative-energy Robin roots exercise non-trivial digits
    assert any(row["value"] < 0 for row in payload["eigenvalues"])
    for row in payload["eigenvalues"]:
        assert float(repr(row["value"])) == row["value"]


def test_physical_units_roundtrip(capsys):
    # dimensionless run
    _, out_dimless, _ = run_cli(
        capsys,
        ["spectrum", "--theory", "schrod", "--bc", "qp:alpha=0", "--window", "0", "100"],
    )
    # physical run with constants chosen so e = 2 m E L^2 / hbar^2 = 8 E
    _, out_phys, _ = run_cli(
        capsys,
        ["spectrum", "--theory", "schrod", "--bc", "qp:alpha=0",
         "--window", "0", "12.5", "--units", "physical",
         "--L", "2", "--mass", "1", "--hbar", "1", "--c", "1"],
    )
    dimless = [r["value"] for r in json.loads(out_dimless)["eigenvalues"]]
    phys = [r["value"] for r in json.loads(out_phys)["eigenvalues"]]
    assert np.allclose(np.array(phys) * 8.0, dimless, rtol=1e-12)


def test_exit_code_malformed_bc_text(capsys):
    code, _, err = run_cli(capsys, ["spectrum", "--theory", "schrod",
                                    "--bc", "qp:gamma=1", "--window", "0", "10"])
    assert code == 2
    assert "error" in err


def test_exit_code_invalid_window_or_density(capsys):
    code, _, err = run_cli(capsys, ["spectrum", "--theory", "schrod",
                                    "--bc", "qp:alpha=0", "--window", "10", "0"])
    assert code == 2 and "window" in err
    code, _, err = run_cli(capsys, ["spectrum", "--theory", "schrod",
                                    "--bc", "qp:alpha=0", "--window", "0", "10",
                                    "--density", "8"])
    assert code == 2 and "density" in err


def test_exit_code_numerical_failure(capsys):
    # no root can meet a 1e-30 residual bound: exit 4 with an error line,
    # not a traceback
    code, out, err = run_cli(capsys, ["spectrum", "--theory", "schrod",
                                      "--bc", "qp:alpha=0", "--window", "0", "50",
                                      "--tol-residual", "1e-30"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "residual verification" in err
    assert "Traceback" not in err


def test_exit_code_grid_over_cap(capsys):
    # (0, 1e6] would need ~163M grid points (~26 GB): refused at once,
    # before the grid is allocated
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["spectrum", "--theory", "schrod",
                                          "--bc", "qp:alpha=0", "--window", "0", "1e6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "grid points" in err and "split" in err
    assert peak < 16e6


def test_exit_code_constraint_violation(capsys):
    code, _, err = run_cli(capsys, ["classify", "--bc", "mat:1,0,1,0,0,0,1,0"])
    assert code == 3
    assert "unitary" in err
    code, _, _ = run_cli(capsys, ["classify", "--bc", "u2:eta=0,m0=1,m1=0.5,m2=0,m3=0"])
    assert code == 3


def test_classify_robin(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--bc", "robin:alpha=1.0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["parity_symmetric"] is True
    assert len(payload["orbit"]) == 15
    assert payload["invariant_triple"]["det"] == pytest.approx(
        [np.cos(2.0), np.sin(2.0)]
    )


def test_classify_qp_orbit_listed(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--bc", "qp:alpha=0.7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["parity_symmetric"] is False
    assert payload["canonical_tag"][0] == pytest.approx(-1.0)
    etas = {round(entry["eta"], 6) for entry in payload["orbit"]}
    assert len(etas) == 1  # eta is orbit-invariant


def test_orbit_command_all_equal(capsys):
    code, out, _ = run_cli(
        capsys,
        ["orbit", "--theory", "schrod", "--bc", "qp:alpha=0", "--window", "0", "200",
         "--lambdas", "4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert payload["max_pairwise_gap"] < 1e-8
    assert len(payload["orbit"]) == 4
    lams = [entry["lambda"] for entry in payload["orbit"]]
    assert lams == pytest.approx([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    counts = {len(entry["spectrum"]["eigenvalues"]) for entry in payload["orbit"]}
    assert len(counts) == 1


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--only", "1,7"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1..2"
    assert lines[1].startswith("ok 1 - [1]")
    assert lines[2].startswith("ok 2 - [7]")
    # every check line ends in its wall time
    assert all(re.search(r" \(\d+\.\d\d s\)$", line) for line in lines[1:])


def test_verify_rejects_bad_selection(capsys):
    code, _, err = run_cli(capsys, ["verify", "--only", "one"])
    assert code == 2
    assert "--only" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "spectrum.json"
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--theory", "schrod", "--bc", "qp:alpha=0",
         "--window", "0", "50", "--out", str(target)],
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["eigenvalues"][0]["value"] == pytest.approx(np.pi**2 / 4)
