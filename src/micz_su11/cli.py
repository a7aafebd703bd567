"""Command-line front end: spectrum tables, eigenfunction dumps, verification suites.

Exit codes: 0 all pass, 1 verification failure, 2 usage or validation error
or a stdout closed by its reader.
Output is deterministic: floats are printed with 17 significant digits, CSV
uses LF line endings, JSON documents carry the "su11-micz/1" schema key.

Each command imports the modules it needs when it runs, so `spectrum` and
`verify-algebra`, whose results are exact or closed-form, and `oracle`, whose
Sturm bisection runs in plain floats (`fd_oracle`), start without numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

from .quantum_numbers import (
    ConvergenceFailure,
    GridUnderflow,
    HalfInt,
    InvalidLevel,
    InvalidQuantumNumbers,
    MonopoleParams,
    energy,
    levels,
    make_sector,
    sector_inputs,
)

SCHEMA = "su11-micz/1"
EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _json_render(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"refusing to serialize non-finite value {obj}")
        return "0" if obj == 0.0 else format(obj, ".17g")  # -0.0 too, so no document prints -0
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _json_render(v) for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_document(args, config: dict, header: list[str], rows: list[list], reports: list | None = None) -> None:
    """Render one document per `--format` and write it to `--out` or stdout.

    CSV is `rows` under `header`; JSON carries `reports` when given, else
    one object per row.  Rendering finishes before anything is written.
    """
    if args.format == "json":
        body = {"reports": reports} if reports is not None else {"rows": [dict(zip(header, r)) for r in rows]}
        text = _json_render({"schema": SCHEMA, "config": config, **body}) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        # CSV cells are JSON scalars, except that strings go unquoted
        writer.writerows([v if isinstance(v, str) else _json_render(v) for v in row] for row in rows)
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _check_positive(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be positive and finite, got {value}")


def _check_window(rmax: float, xmax: float, points: str) -> None:
    """ValueError naming --rmax when the largest sample point xmax (x = `points`) or 2 xmax is not finite.

    chi is sampled on 2x, which `TowerSampler` refuses past the float range.
    """
    if not math.isfinite(2.0 * float(xmax)):
        raise ValueError(f"--rmax {rmax:g} is too large: the sample points x = {points} or 2x overflow")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    if args.nmax < 1:
        raise InvalidLevel(f"--nmax must be at least 1, got {args.nmax}")
    sector = make_sector(MonopoleParams(args.s, args.c1, args.c2), args.m, args.j)
    header = ["s", "m", "j", "n", "delta1", "delta2", "J", "K", "E"]
    rows = [
        [str(args.s), str(args.m), str(args.j), str(level.n), sector.delta1, sector.delta2, sector.bigJ,
         level.K, level.energy]
        for level in levels(sector, args.nmax)
    ]
    config = {"command": "spectrum", **sector_inputs(sector), "nmax": args.nmax}
    _write_document(args, config, header, rows)
    return EXIT_OK


def cmd_eigenfunction(args) -> int:
    import numpy as np

    from .analytic_states import TowerSampler, _peak, angular_Z, angular_state, radial_state, radial_window

    if args.npoints < 1:
        raise ValueError(f"--npoints must be positive, got {args.npoints}")
    sector = make_sector(MonopoleParams(args.s, args.c1, args.c2), args.m, args.j)
    if args.kind == "radial":
        if args.n is None:
            raise InvalidLevel("radial eigenfunction requires --n")
        if args.rmax is not None:
            _check_positive("--rmax", args.rmax)
        state = radial_state(sector, args.n)
        xmax = args.rmax if args.rmax is not None else radial_window(state.level.K)
        with np.errstate(over="ignore", invalid="ignore"):
            xs = xmax * np.arange(1, args.npoints + 1) / args.npoints
            _check_window(xmax, xs[-1], "rmax i/npoints")
            sampler = TowerSampler(sector, xs)
            cols = (sampler.chi(state), *sampler.derivatives(state, 2))
            if not all(np.all(np.isfinite(c)) for c in cols):
                what = "chi or its derivatives are not finite"
                if not np.all(np.isfinite(sampler.row(state.kummer, 0))):  # the row chi read
                    what = (f"F(-k, b; 2x) with k={state.kummer.k}, b={state.kummer.bparam:g} "
                            "overflows")
                raise ValueError(f"at n={args.n} {what} on the window 0 < x <= {xmax:g}")
        if not cols[0].any():  # refused as `verify-states` refuses chi with zero norm on its grid
            raise GridUnderflow(f"chi at n={args.n} is 0 on every node of the window 0 < x <= {xmax:g}")
        header = ["x", "chi", "chi_d1", "chi_d2"]
        rows = list(zip(xs, *cols))
        config = {"command": "eigenfunction", "kind": "radial", **sector_inputs(sector),
                  "n": str(args.n), "rmax": xmax, "npoints": args.npoints}
    else:
        if not math.isfinite(args.phi):
            raise ValueError(f"--phi must be finite, got {args.phi}")
        state = angular_state(sector)
        thetas = math.pi * np.arange(1, args.npoints + 1) / (args.npoints + 1.0)
        z = angular_Z(state, thetas, args.phi)
        _peak(z)  # a table that is 0 on every node is refused, as `verify-states` refuses such a profile
        header = ["theta", "re_z", "im_z"]
        rows = list(zip(thetas, z.real, z.imag))
        config = {"command": "eigenfunction", "kind": "angular", **sector_inputs(sector),
                  "phi": args.phi, "npoints": args.npoints}
    _write_document(args, config, header, [[float(v) for v in row] for row in rows])
    return EXIT_OK


def cmd_verify_algebra(args) -> int:
    from .operator_algebra import extra_identity_checks, identity_suite, monomial_action

    kmax = args.deg_check_max
    if kmax < -4:
        raise ValueError(f"--deg-check-max must be at least -4, got {kmax}")
    identities = identity_suite()
    reports = []
    failed = []
    for group, checks in (("identity", identities), ("supplementary", extra_identity_checks())):
        for name, diff in checks:
            rendered = diff.render()
            ok = diff.is_zero
            print(f"{group} {name}: {rendered}  {'PASS' if ok else 'FAIL'}")
            reports.append({"check_name": f"{group}: {name}", "difference": rendered, "passed": ok})
            if not ok:
                failed.append((name, rendered))

    sweep_ok = True
    # the zero operator's image of every x^k is empty, so only a nonzero difference is swept
    for name, diff in identities:
        if diff.is_zero:
            continue
        k = next((k for k in range(-4, kmax + 1) if monomial_action(diff, k)), None)
        if k is not None:
            sweep_ok = False
            failed.append((f"{name} acting on x^{k}", diff.render()))
    print(f"oracle sweep k in [-4, {kmax}]: {'PASS' if sweep_ok else 'FAIL'}")
    reports.append({"check_name": "monomial_oracle_sweep", "k_min": -4, "k_max": kmax, "passed": sweep_ok})

    n_ok = sum(1 for _, diff in identities if diff.is_zero)
    print(f"{n_ok}/{len(identities)} identities PASS")
    if args.out or args.format == "csv":
        rows = [[r["check_name"], r["passed"], r.get("difference", "")] for r in reports]
        _write_document(args, {"command": "verify-algebra", "deg_check_max": kmax},
                        ["check_name", "passed", "difference"], rows, reports)
    if failed:
        name, rendered = failed[0]
        print(f"FAILED {name}: {rendered}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_verify_states(args) -> int:
    from .numeric_verify import states_grid, verify_states_suite

    params = MonopoleParams(args.s, args.c1, args.c2)
    sector = make_sector(params, args.m, args.j)
    if args.nmax < 1:
        raise InvalidLevel(f"--nmax must be at least 1, got {args.nmax}")
    if args.tol is not None:
        _check_positive("--tol", args.tol)
    grid = None
    if args.rmax is not None or args.npoints is not None:
        grid = states_grid(sector, args.nmax, args.rmax, args.npoints)
        _check_window(grid.rmax, grid.nodes[-1], "rmax i/(npoints+1)")
    reports = verify_states_suite(params, args.m, args.j, nlevels=args.nmax, grid=grid, tol=args.tol)
    for r in reports:
        label = r.inputs.get("n", "-")
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check_name:20s} n={label:5s} "
              f"residual={r.residual:.3e} tol={r.tolerance:.1e}")
    n_fail = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - n_fail}/{len(reports)} checks PASS")
    if args.out or args.format == "csv":
        config = {"command": "verify-states", **sector_inputs(sector), "nmax": args.nmax,
                  "rmax": grid.rmax if grid else None, "npoints": grid.npoints if grid else None,
                  "tol": args.tol}
        rows = [[r.check_name, r.inputs.get("n", ""), r.residual, r.tolerance, r.passed, r.runtime_ms]
                for r in reports]
        _write_document(args, config, ["check_name", "n", "residual", "tolerance", "passed", "runtime_ms"],
                        rows, [r.to_dict() for r in reports])
    return EXIT_VERIFY_FAIL if n_fail else EXIT_OK


def cmd_oracle(args) -> int:
    from .fd_oracle import oracle_grid, oracle_reports, spectrum_cross_check

    if args.nmax < 1:
        raise InvalidLevel(f"--nmax must be at least 1, got {args.nmax}")
    if args.tol is not None:
        _check_positive("--tol", args.tol)
    if args.bigJ is not None:
        if given := [flag for flag, v in (("--s", args.s), ("--m", args.m), ("--j", args.j)) if v is not None]:
            raise InvalidQuantumNumbers(f"--bigJ sets J directly and cannot be combined with {', '.join(given)}")
        if not (math.isfinite(args.bigJ) and args.bigJ >= 0):
            raise InvalidQuantumNumbers(f"--bigJ must be non-negative and finite, got {args.bigJ}")
        if args.nmax > sys.float_info.max:  # as `energy` bounds a sector's n - j: K must be a float
            raise InvalidLevel(f"--nmax is too large: it must not exceed {sys.float_info.max:g}")
        J = args.bigJ
        k_top = J + 1.0 + (args.nmax - 1)
        config = {"command": "oracle", "bigJ": J}
    else:
        if args.s is None or args.m is None or args.j is None:
            raise InvalidQuantumNumbers("oracle needs either --bigJ or the sector flags --s --m --j")
        params = MonopoleParams(args.s, args.c1, args.c2)
        sector = make_sector(params, args.m, args.j)
        k_top = energy(sector, sector.j + args.nmax).K
        config = {"command": "oracle", **sector_inputs(sector)}
    grid = oracle_grid(k_top, args.rmax, args.npoints)
    if args.nmax > grid.npoints:
        raise InvalidLevel(f"--nmax must not exceed --npoints ({grid.npoints}), got {args.nmax}")
    if args.bigJ is not None:
        pairs = [(J + 1.0 + i, {"bigJ": J, "rmax": grid.rmax, "npoints": grid.npoints}) for i in range(args.nmax)]
        reports = oracle_reports(J, pairs, grid, args.tol)
    else:
        reports = spectrum_cross_check(params, args.m, args.j, args.nmax, grid, args.tol)
    # the tolerance the reports applied, the default one when --tol is not given
    config.update({"nmax": args.nmax, "rmax": grid.rmax, "npoints": grid.npoints, "tol": reports[0].tolerance})
    rows = [[r.inputs.get("n", ""), r.details["K"], r.details["oracle_energy"], r.details["analytic_energy"],
             r.residual, r.passed] for r in reports]
    _write_document(args, config, ["level", "K", "E_oracle", "E_analytic", "rel_error", "passed"],
                    rows, [r.to_dict() for r in reports])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _half_int(text: str) -> HalfInt:
    """`HalfInt.parse` for argparse, which then names the flag and the reason."""
    try:
        return HalfInt.parse(text)
    except InvalidQuantumNumbers as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_sector_args(sp, required: bool = True) -> None:
    sp.add_argument("--s", type=_half_int, required=required,
                    help="monopole charge, e.g. 1/2 or 0.5")
    sp.add_argument("--c1", type=float, default=0.0, help="axial coupling c1 >= 0")
    sp.add_argument("--c2", type=float, default=0.0, help="axial coupling c2 >= 0")
    sp.add_argument("--m", type=_half_int, required=required,
                    help="z-projection quantum number")
    sp.add_argument("--j", type=_half_int, required=required,
                    help="total angular momentum quantum number")


def _add_output_args(sp, default_format: str) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default=default_format)
    sp.add_argument("--out", default=None, help="write the document to this path")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusal is one `error:` line on stderr and exit 2, without the usage text.

    `add_subparsers` builds the subcommand parsers from this class too.
    """

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="micz-su11",
        description="Spectrum tables, eigenfunctions and su(1,1) verification "
                    "suites for the generalized MICZ-Kepler problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="analytic bound-state table of one (m, j) sector")
    _add_sector_args(sp)
    sp.add_argument("--nmax", type=int, default=32, help="number of levels starting at n = j+1")
    _add_output_args(sp, "csv")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("eigenfunction", help="sampled radial chi or angular Z tables")
    _add_sector_args(sp)
    sp.add_argument("--kind", choices=("radial", "angular"), default="radial")
    sp.add_argument("--n", type=_half_int, default=None, help="principal quantum number (radial)")
    sp.add_argument("--rmax", type=float, default=None,
                    help="radial window in the scaled variable (default 10 + 4K)")
    sp.add_argument("--npoints", type=int, default=512, help="number of sample points")
    sp.add_argument("--phi", type=float, default=0.0, help="azimuth for the angular table")
    _add_output_args(sp, "csv")
    sp.set_defaults(func=cmd_eigenfunction)

    sp = sub.add_parser("verify-algebra", help="exact su(1,1) and factorization identities")
    sp.add_argument("--deg-check-max", type=int, default=12,
                    help="upper monomial power for the action oracle sweep")
    _add_output_args(sp, "json")
    sp.set_defaults(func=cmd_verify_algebra)

    sp = sub.add_parser("verify-states", help="numeric state-level verification suite")
    _add_sector_args(sp)
    sp.add_argument("--nmax", type=int, default=5, help="number of levels above the tower bottom")
    sp.add_argument("--rmax", type=float, default=None, help="grid window (scaled variable)")
    sp.add_argument("--npoints", type=int, default=None, help="grid points (default 4000)")
    sp.add_argument("--tol", type=float, default=None, help="override every check tolerance")
    _add_output_args(sp, "json")
    sp.set_defaults(func=cmd_verify_states)

    sp = sub.add_parser("oracle", help="finite-difference eigenvalues vs the analytic spectrum")
    _add_sector_args(sp, required=False)
    sp.add_argument("--bigJ", type=float, default=None,
                    help="angular label J directly, in place of the sector flags --s --m --j")
    sp.add_argument("--nmax", type=int, default=3, help="number of eigenvalues")
    sp.add_argument("--rmax", type=float, default=None, help="grid extent (default 12 K_max^2)")
    sp.add_argument("--npoints", type=int, default=None, help="grid points (default 6000)")
    sp.add_argument("--tol", type=float, default=None, help="relative-error pass threshold")
    _add_output_args(sp, "csv")
    sp.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; with fd 1 on devnull the flush at
        # interpreter shutdown cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # an --out that cannot be written (a BrokenPipeError is caught above)
        print(f"error: cannot write {exc.filename or 'the output'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy refuses an --npoints array beyond the address space with a one-line message
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except GridUnderflow as exc:
        print(f"error: {exc}; choose another --rmax", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceFailure, ValueError) as exc:
        # every validation error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL if isinstance(exc, ConvergenceFailure) else EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
