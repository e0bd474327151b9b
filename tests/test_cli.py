"""Tests for the command-line interface: output schemas, determinism,
unit conversion, and exit codes."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ring_spectra
from ring_spectra.cli import main
from ring_spectra.roots import _certify


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
    # localized to the root tolerance (1e-12)
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


def test_exit_code_invalid_window(capsys):
    code, _, err = run_cli(capsys, ["spectrum", "--theory", "schrod",
                                    "--bc", "qp:alpha=0", "--window", "10", "0"])
    assert code == 2 and "window" in err
    # non-finite tolerances and rest energies are malformed input too
    base = ["spectrum", "--theory", "dirac", "--bc", "qp:alpha=0", "--window", "0", "50"]
    for extra in (["--tol-residual", "nan"], ["--tol-residual", "inf"], ["--tol-root", "nan"],
                  ["--mu0", "nan"], ["--mu0", "inf"]):
        code, out, err = run_cli(capsys, base + extra)
        assert code == 2 and out == "", extra
        assert err.startswith("error: ") and "Traceback" not in err
    # classify and orbit write JSON only: csv is refused by argparse
    for argv in (
        ["classify", "--bc", "qp:alpha=0.7"],
        ["orbit", "--theory", "schrod", "--bc", "qp:alpha=0", "--window", "0", "50",
         "--lambdas", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "invalid choice: 'csv'" in captured.err


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


def test_a_residual_failure_names_its_cause(capsys):
    # Dirac near mu = 5e6, U 8 of rng 1: one root is beyond double
    # precision at the default tolerance.  Exit 4 names the cause and the
    # remedy, and the remedy exits 0
    rng = np.random.default_rng(1)
    u = [ring_spectra.random_unitary_bc(rng) for _ in range(9)][8]
    spec = f"u2:eta={u.eta!r},m0={u.m0!r}," + ",".join(
        f"m{i + 1}={float(m)!r}" for i, m in enumerate(u.m)
    )
    argv = ["spectrum", "--theory", "dirac", "--mu0", "1", "--bc", spec,
            "--window", "5e6", "5000100"]
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and out == ""
    assert err.startswith("error: root at x = 5000024.30343 failed residual verification: ")
    assert "beyond double precision" in err and "(--tol-residual)" in err
    code, out, err = run_cli(capsys, argv + ["--tol-residual", "2e-9"])
    assert code == 0 and err == ""
    assert all(row["residual"] < 2e-9 for row in json.loads(out)["eigenvalues"])


def test_orbit_takes_the_tolerance_options(capsys):
    # orbit passes --tol-root and --tol-residual on, as spectrum does: an
    # unmeetable residual tolerance exits 4, and on the window where the
    # default one fails (the case above) the remedy the error names works
    argv = ["orbit", "--theory", "dirac", "--mu0", "1", "--window", "-5", "5",
            "--bc", "u2:eta=0.3,m0=0.6,m1=0.0,m2=0.8,m3=0.0", "--lambdas", "2"]
    code, out, err = run_cli(capsys, argv + ["--tol-residual", "1e-30"])
    assert code == 4 and out == ""
    assert "residual verification" in err
    rng = np.random.default_rng(1)
    u = [ring_spectra.random_unitary_bc(rng) for _ in range(9)][8]
    spec = f"u2:eta={u.eta!r},m0={u.m0!r}," + ",".join(
        f"m{i + 1}={float(m)!r}" for i, m in enumerate(u.m)
    )
    argv = ["orbit", "--theory", "dirac", "--mu0", "1", "--bc", spec,
            "--window", "5e6", "5000100", "--lambdas", "4"]
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and out == ""
    assert "residual verification" in err and "(--tol-residual)" in err
    code, out, err = run_cli(capsys, argv + ["--tol-residual", "2e-9"])
    assert code == 0 and err == ""
    for entry in json.loads(out)["orbit"]:
        assert all(row["residual"] < 2e-9 for row in entry["spectrum"]["eigenvalues"])
    # and all three other members certify from the searched one at 2e-9
    kernel, window = ring_spectra.DiracKernel(1.0), (5e6, 5000100.0)
    entries = ring_spectra.orbit_spectra(u, window, kernel, n_lambda=4, tol_residual=2e-9)
    members = [member for _, member, _ in entries]
    assert None not in _certify(entries[0][2], members[1:], kernel, 1e-12, 2e-9)


def test_exit_code_root_count_over_cap(capsys):
    # (0, 1e6] holds 318 roots and is searched; a Dirac window holding
    # 636618 is refused at once, before its brackets are allocated
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["spectrum", "--theory", "schrod",
                                          "--bc", "qp:alpha=0", "--window", "0", "1e6"])
        assert code == 0 and err == ""
        assert len(json.loads(out)["eigenvalues"]) == 318
        code, out, err = run_cli(capsys, ["spectrum", "--theory", "dirac", "--mu0", "1",
                                          "--bc", "dpp:alpha=0", "--window", "-1000000", "1e6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "636618 roots" in err and "split" in err
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
    # a selection naming no check would pass having run nothing
    code, out, err = run_cli(capsys, ["verify", "--only", "3,99"])
    assert code == 2 and out == ""
    assert "99" in err and "1 to 12" in err


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


@pytest.mark.parametrize("argv", [
    ["spectrum", "--theory", "schrod", "--bc", "qp:alpha=0", "--window", "0", "50"],
    ["classify", "--bc", "qp:alpha=0.7"],
    ["orbit", "--theory", "schrod", "--bc", "qp:alpha=0", "--window", "0", "50",
     "--lambdas", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_an_unwritable_out_path_exits_2(argv, where, tmp_path, capsys):
    path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, argv + ["--out", str(path)])
    assert code == 2 and out == ""
    reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
    assert err == f"error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("text", [
    "qp:alpha=1e999",
    "u2:eta=1e999,m0=1,m1=0,m2=0,m3=0",
    "parity:eta=1e999,theta=0",
    "mat:1e999,0,0,0,0,0,1,0",
])
def test_an_overflowing_bc_number_exits_2_without_a_warning(text, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["classify", "--bc", text])
    assert code == 2 and out == ""
    assert err == "error: not a finite number: '1e999'\n"


@pytest.mark.parametrize("text", [
    "mat:1e200,0,0,0,0,0,1,0",
    "u2:eta=0,m0=1e200,m1=0,m2=0,m3=0",
])
def test_a_huge_finite_bc_number_exits_3_with_one_error_line(text, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["classify", "--bc", text])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "= inf" in err


@pytest.mark.parametrize("argv", [
    ["--mu0", "1e155"],
    ["--mu0", "1e308", "--window", "-10", "10"],
    ["--units", "physical", "--mass", "1e200"],
])
def test_a_rest_energy_whose_square_overflows_exits_2(argv, capsys):
    # refused before any search, with one error line naming the limit
    args = ["spectrum", "--theory", "dirac", "--bc", "dpp:alpha=0", "--window", "-1", "1", *argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, args)
    assert code == 2 and out == ""
    assert err.startswith("error: mu0 must be at most 1.3407807929942596e+154")
    assert err.count("\n") == 1


def test_closed_pipe_exits_without_a_traceback():
    # `ring-spectra orbit ... | head -5`: the reader leaves after its first
    # read, the ~200 kB of JSON no longer fits the pipe, and the write fails
    env = dict(os.environ)
    src = str(Path(ring_spectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "ring_spectra", "orbit", "--theory", "dirac", "--mu0", "1",
            "--bc", "qp:alpha=0", "--window", "-200", "200"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert code == 1
