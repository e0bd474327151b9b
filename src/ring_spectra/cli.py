"""Command-line interface.

Subcommands: ``spectrum`` (eigenvalues in a window), ``classify``
(isospectrality classification of one boundary condition), ``orbit``
(spectra across the conjugation orbit), ``verify`` (run the acceptance
suite as TAP).  Identical configurations produce byte-identical output;
floats are emitted with 17 significant digits so a JSON round trip
reproduces every value exactly.

Exit codes: 0 success, 2 malformed boundary-condition text, 3 boundary
condition violating a constraint (non-unitary, off the unit sphere),
4 numerical failure (unresolvable pole interval, a root failing
residual verification, or coincident eigenphase crossings).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, acceptance
from .bc import BCConstraintError, BCParseError, UnitaryBC, parse_bc
from .dirac import DiracKernel, PhysicalConfig, SpectralPoleError
from .iso import classify, compare_spectra, orbit_spectra
from .matalg import NonUnitaryError
from .roots import (
    DEFAULT_DENSITY,
    DEFAULT_TOL_RESIDUAL,
    DEFAULT_TOL_ROOT,
    SEPARATION_FACTOR,
    NumericalError,
    SpectrumSlice,
    find_spectrum,
)
from .schrod import SchrodKernel

EXIT_OK = 0
EXIT_BAD_SPEC = 2
EXIT_BAD_BC = 3
EXIT_NUMERICAL = 4


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not np.isfinite(x):  # JSON has no inf/nan
        return "null"
    return format(x, ".17g")


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {_dump_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _format_number(obj)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _add_bc_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--bc",
        required=True,
        help="boundary condition, e.g. qp:alpha=0, robin:alpha=1.0, "
        "parity:eta=0.3,theta=1.1, u2:eta=...,m0=...,m1=...,m2=...,m3=..., "
        "mat:<8 reals>",
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_spectrum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theory", choices=("dirac", "schrod"), required=True)
    _add_bc_arg(p)
    p.add_argument(
        "--window", nargs=2, type=float, metavar=("MIN", "MAX"), required=True,
        help="energy window (half-open (MIN, MAX]) in the chosen units",
    )
    p.add_argument("--mu0", type=float, default=0.0,
                   help="dimensionless rest energy (dirac, dimensionless units)")
    p.add_argument("--units", choices=("dimensionless", "physical"), default="dimensionless")
    p.add_argument("--L", type=float, default=1.0, help="ring length (physical units)")
    p.add_argument("--mass", type=float, default=1.0, help="particle mass (physical units)")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--density", type=int, default=DEFAULT_DENSITY,
                   help=f"grid nodes per 2*pi of window (default {DEFAULT_DENSITY}, min 64)")
    p.add_argument("--tol-root", type=float, default=DEFAULT_TOL_ROOT,
                   help=f"bisection width tolerance (default {DEFAULT_TOL_ROOT:g})")
    p.add_argument("--tol-residual", type=float, default=DEFAULT_TOL_RESIDUAL,
                   help=f"|F| bound for accepted roots (default {DEFAULT_TOL_RESIDUAL:g})")
    _add_output_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ring-spectra",
        description="Exact spectra of a quantum particle on a ring with a "
        "junction, for every self-adjoint U(2) boundary condition. "
        f"Root separation tolerance is {SEPARATION_FACTOR:g}*max(1,|x|).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalues in an energy window")
    _add_spectrum_args(p_spec)

    p_cls = sub.add_parser("classify", help="isospectrality classification of one condition")
    _add_bc_arg(p_cls)
    _add_output_args(p_cls)

    p_orb = sub.add_parser("orbit", help="spectra across the conjugation orbit")
    _add_spectrum_args(p_orb)
    p_orb.add_argument("--lambdas", type=int, default=16, help="orbit sample count (default 16)")

    p_ver = sub.add_parser("verify", help="run the acceptance suite (TAP output)")
    p_ver.add_argument("--only", default=None,
                       help="comma-separated check numbers (default: all)")
    return parser


def _resolve_units(args) -> tuple[float, tuple[float, float], PhysicalConfig | None]:
    """Returns (mu0, dimensionless window, config or None)."""
    lo, hi = args.window
    if args.units == "dimensionless":
        if args.theory == "schrod":
            return 0.0, (lo, hi), None
        return args.mu0, (lo, hi), None
    cfg = PhysicalConfig(L=args.L, mass=args.mass, hbar=args.hbar, c=args.c)
    if args.theory == "dirac":
        return cfg.mu0, (cfg.dirac_mu(lo), cfg.dirac_mu(hi)), cfg
    return 0.0, (cfg.schrod_e(lo), cfg.schrod_e(hi)), cfg


def _make_kernel(theory: str, mu0: float):
    return DiracKernel(mu0) if theory == "dirac" else SchrodKernel()


def _eigenvalue_rows(s: SpectrumSlice, args, cfg: PhysicalConfig | None):
    rows = []
    for r in s.roots:
        value = r.x
        if cfg is not None:
            value = cfg.dirac_energy(r.x) if args.theory == "dirac" else cfg.schrod_energy(r.x)
        rows.append({"value": value, "multiplicity": r.multiplicity, "residual": r.residual})
    return rows


def _spectrum_payload(s: SpectrumSlice, args, cfg: PhysicalConfig | None) -> dict:
    payload = {
        "theory": args.theory,
        "bc": args.bc,
        "window": [args.window[0], args.window[1]],
        "units": args.units,
        "eigenvalues": _eigenvalue_rows(s, args, cfg),
        "meta": {
            "grid_points": s.grid_points,
            "tolerances": {
                "root": args.tol_root,
                "residual": args.tol_residual,
                "separation_factor": SEPARATION_FACTOR,
            },
            "density": args.density,
            "version": __version__,
        },
    }
    if args.theory == "dirac":
        payload["meta"]["mu0"] = cfg.mu0 if cfg is not None else args.mu0
    return payload


def _spectrum_csv(s: SpectrumSlice, args, cfg: PhysicalConfig | None) -> str:
    lines = [
        f"# theory: {args.theory}",
        f"# bc: {args.bc}",
        f"# window: {_format_number(args.window[0])} {_format_number(args.window[1])}",
        f"# units: {args.units}",
        f"# grid_points: {s.grid_points}",
        f"# version: {__version__}",
        "value,multiplicity,residual",
    ]
    for row in _eigenvalue_rows(s, args, cfg):
        lines.append(
            f"{_format_number(row['value'])},{row['multiplicity']},{_format_number(row['residual'])}"
        )
    return "\n".join(lines)


def cmd_spectrum(args) -> int:
    u = parse_bc(args.bc)
    mu0, window, cfg = _resolve_units(args)
    kernel = _make_kernel(args.theory, mu0)
    s = find_spectrum(
        u, window, kernel,
        density=args.density, tol_root=args.tol_root, tol_residual=args.tol_residual,
    )
    if args.format == "json":
        _write_output(_dump_json(_spectrum_payload(s, args, cfg)), args.out)
    else:
        _write_output(_spectrum_csv(s, args, cfg), args.out)
    return EXIT_OK


def _bc_chart(u: UnitaryBC) -> dict:
    return {"eta": u.eta, "m0": u.m0, "m": [u.m[0], u.m[1], u.m[2]]}


def cmd_classify(args) -> int:
    u = parse_bc(args.bc)
    result = classify(u)
    t = result.invariant_triple
    payload = {
        "bc": args.bc,
        "chart": _bc_chart(u),
        "parity_symmetric": result.parity_symmetric,
        "invariant_triple": {
            "det": [t.det_u.real, t.det_u.imag],
            "tr": [t.tr_u.real, t.tr_u.imag],
            "tr_sx": [t.tr_u_sx.real, t.tr_u_sx.imag],
        },
        "canonical_tag": list(result.canonical_tag),
        "orbit": [
            {"lambda": (k + 1) * np.pi / 8.0, **_bc_chart(s)}
            for k, s in enumerate(result.orbit_samples)
        ],
        "meta": {"version": __version__},
    }
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_orbit(args) -> int:
    u = parse_bc(args.bc)
    mu0, window, cfg = _resolve_units(args)
    kernel = _make_kernel(args.theory, mu0)
    entries = orbit_spectra(u, window, kernel, n_lambda=args.lambdas, density=args.density)
    base = entries[0][2]
    all_equal = True
    max_gap = 0.0
    for _, _, s in entries[1:]:
        cmp = compare_spectra(base, s, tol=1e-8)
        all_equal &= cmp.equal
        if np.isfinite(cmp.max_pairwise_gap):
            max_gap = max(max_gap, cmp.max_pairwise_gap)
        else:
            max_gap = float("inf")
    payload = {
        "all_equal": all_equal,
        "max_pairwise_gap": max_gap,
        "orbit": [
            {
                "lambda": lam,
                "bc": _bc_chart(s_bc),
                "spectrum": {"eigenvalues": _eigenvalue_rows(s, args, cfg)},
            }
            for lam, s_bc, s in entries
        ],
        "meta": {"version": __version__, "theory": args.theory, "window": list(args.window)},
    }
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    numbers = None
    if args.only:
        try:
            numbers = [int(tok) for tok in args.only.split(",")]
        except ValueError:
            print(f"--only expects comma-separated integers, got {args.only!r}", file=sys.stderr)
            return EXIT_BAD_SPEC
    return EXIT_OK if acceptance.run_all(numbers) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "spectrum": cmd_spectrum,
        "classify": cmd_classify,
        "orbit": cmd_orbit,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BCParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except (BCConstraintError, NonUnitaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_BC
    except SpectralPoleError as exc:
        print(f"error: {exc} (interval could not be resolved)", file=sys.stderr)
        return EXIT_NUMERICAL
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # window/density/tolerance validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC


if __name__ == "__main__":
    sys.exit(main())
