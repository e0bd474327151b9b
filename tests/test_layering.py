"""The engine's import boundary.

``import ring_spectra`` and ``import ring_spectra.cli`` load the search
engine only; the check-only modules (``oracles``, ``triple``,
``acceptance``) load when ``ring-spectra verify`` runs.  Each case runs
in a fresh interpreter so no other test's imports leak into it.
"""

import os
import subprocess
import sys
from pathlib import Path

import ring_spectra

ENGINE = {"ring_spectra"} | {
    f"ring_spectra.{name}" for name in ("bc", "matalg", "dirac", "schrod", "roots", "iso")
}


def run_python(code: str) -> str:
    env = dict(os.environ)
    src = str(Path(ring_spectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(statement: str) -> set[str]:
    code = f"import sys\n{statement}\nprint(' '.join(m for m in sys.modules if m.startswith('ring_spectra')))"
    return set(run_python(code).split())


def test_package_import_loads_the_engine_only():
    assert loaded_after("import ring_spectra") == ENGINE


def test_cli_import_adds_only_the_cli():
    assert loaded_after("import ring_spectra.cli") == ENGINE | {"ring_spectra.cli"}


def holders_of_the_snap_band(statement: str) -> list[str]:
    """module.attr for every loaded package module holding the snap band."""
    code = (
        f"import sys\n{statement}\n"
        "print(' '.join(f'{name}.{attr}' for name, module in sorted(sys.modules.items())\n"
        "    if name.startswith('ring_spectra')\n"
        "    for attr in ('snap_band', 'SNAP_TOL') if hasattr(module, attr)))"
    )
    return run_python(code).split()


def test_the_engine_holds_no_snap_band():
    # the kernels evaluate every energy as itself, up to and on the
    # zero-wavenumber points, and so does the representation kernel,
    # whose basis is a propagator; only the check-only oracles, whose
    # plane-wave bases degenerate there, keep a snap band
    assert holders_of_the_snap_band("import ring_spectra") == []
    assert holders_of_the_snap_band("import ring_spectra.triple\nimport ring_spectra.oracles") == [
        "ring_spectra.oracles.snap_band",
        "ring_spectra.oracles.SNAP_TOL",
    ]


def test_public_names_resolve():
    assert len(ring_spectra.__all__) == 26
    assert all(hasattr(ring_spectra, name) for name in ring_spectra.__all__)


def test_searches_leave_numpy_ma_unloaded():
    # numpy.ma costs ~1.6 MB of memory when first imported, and
    # np.unique or np.union1d import it; the search merges its samples
    # without them, on either kernel, also where the turning points apply
    code = (
        "import sys\nimport numpy as np\nimport ring_spectra as rs\n"
        "u = rs.random_unitary_bc(np.random.default_rng(1))\n"
        "rs.find_spectrum(u, (0.0, 1e4), rs.SchrodKernel())\n"
        "rs.find_spectrum(u, (99.0, 200.0), rs.DiracKernel(100.0))\n"
        "rs.find_spectrum(u, (-10.0, 10.0), rs.DiracKernel(1.0))\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert run_python(code).split() == ["False"]


def test_verify_still_runs_the_checks():
    code = "from ring_spectra import cli\nraise SystemExit(cli.main(['verify', '--only', '3']))"
    out = run_python(code)
    assert out.splitlines()[0] == "1..1"
    assert out.splitlines()[1].startswith("ok 1 - [3]")
