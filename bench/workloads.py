"""The four benchmark workloads: seeded inputs, the timed call and its output checks.

Every workload is a list of cycles built from the seed before timing starts.
One cycle holds a fixed mix of items, so every seed does the same mix of
work; the timed loop runs whole cycles, wrapping around the list if the
program is fast enough to finish it.  `run` is the only timed part of an
item; `check` inspects what it returned.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import micz_su11
from micz_su11 import cli, numeric_verify as nv, operator_algebra as oa, quantum_numbers as qn

CYCLES = 64
SCHEMA = "su11-micz/1"
EXIT_OK = frozenset({0})
EXIT_VERDICT = frozenset({0, 1})  # verification subcommands exit 1 when a check fails


@dataclass
class Outcome:
    """What the benchmark learned from one item."""

    checks: int = 0          # verification checks the program attempted
    check_fails: int = 0     # of those, the program's own FAILs and nonzero exits
    worst: float = 0.0       # max residual / tolerance over the item's reports
    problems: list[str] = field(default_factory=list)  # failed output checks


STRATA = 12


def sector_strata() -> list[list[tuple]]:
    """The sector pool cut into STRATA equal slices by J.

    Pool: s in {0, 1/2, 1}, c1, c2 in {0, 0.5, 2}, |m| <= 2,
    m_plus <= j <= m_plus + 2 (378 sectors).
    """
    pool = []
    for s2 in (0, 1, 2):
        s = qn.HalfInt(s2)
        for c1 in (0.0, 0.5, 2.0):
            for c2 in (0.0, 0.5, 2.0):
                for m2 in range(-4, 5):
                    if (m2 - s2) % 2:
                        continue
                    m = qn.HalfInt(m2)
                    for dj in range(3):
                        j = qn.m_plus(s, m) + dj
                        pool.append((qn.MonopoleParams(s, c1, c2), m, j))
    pool.sort(key=lambda sec: qn.make_sector(*sec).bigJ)
    size = len(pool) / STRATA
    return [pool[round(i * size):round((i + 1) * size)] for i in range(STRATA)]


class SectorDraw:
    """Seeded sectors, stratified by J.

    Each run of STRATA consecutive draws takes one sector from every J slice
    of the pool, in seeded order.  Cost and the known check failures of the
    baseline program both depend on J, so this gives every seed the same
    spread of J while the sectors themselves differ.
    """

    def __init__(self, rng: random.Random, strata: list[list[tuple]]):
        self.rng = rng
        self.strata = strata
        self.order: list[int] = []

    def __call__(self) -> tuple:
        if not self.order:
            self.order = self.rng.sample(range(len(self.strata)), len(self.strata))
        return self.rng.choice(self.strata[self.order.pop()])


def _reports_outcome(reports, expected: int) -> Outcome:
    out = Outcome(checks=len(reports), check_fails=sum(not r.passed for r in reports))
    if len(reports) != expected:
        out.problems.append(f"expected {expected} reports, got {len(reports)}")
    for r in reports:
        if not math.isfinite(r.residual):
            out.problems.append(f"{r.check_name}: non-finite residual {r.residual}")
        else:
            out.worst = max(out.worst, r.residual / r.tolerance)
    return out


class States:
    """verify_states_suite on seeded sectors at the default grid.

    nlevels = 10 appears twice in a cycle so that the median item is an
    nlevels-10 suite; with four equal groups the median falls in the gap
    between the nlevels-5 and nlevels-10 latencies and swings with noise.
    """

    NLEVELS = (3, 5, 10, 10, 20)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        strata = sector_strata()
        draws = {nl: SectorDraw(rng, strata) for nl in set(self.NLEVELS)}
        self.cycles = [
            [(draws[nl](), nl) for nl in rng.sample(self.NLEVELS, len(self.NLEVELS))]
            for _ in range(CYCLES)
        ]

    def warm_up(self, inproc: bool) -> None:
        (params, m, j), _ = self.cycles[0][0]
        nv.verify_states_suite(params, m, j, nlevels=3)

    def run(self, item, inproc: bool):
        (params, m, j), nlevels = item
        return nv.verify_states_suite(params, m, j, nlevels=nlevels)

    def check(self, item, reports) -> Outcome:
        nlevels = item[1]
        return _reports_outcome(reports, 1 + 5 * nlevels + (nlevels - 1))


class Oracle:
    """spectrum_cross_check at the CLI default grid, plus one 20000-point solve per cycle.

    (10, 6000) appears twice in a cycle so that the median item is an
    nmax-10 solve at the default grid, for the reason given in States.
    """

    SPECS = ((3, 6000), (6, 6000), (10, 6000), (10, 6000), (10, 20000))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        strata = sector_strata()
        draws = {spec: SectorDraw(rng, strata) for spec in set(self.SPECS)}
        self.cycles = []
        for _ in range(CYCLES):
            cycle = []
            for nmax, npoints in rng.sample(self.SPECS, len(self.SPECS)):
                params, m, j = draws[nmax, npoints]()
                kmax = qn.make_sector(params, m, j).bigJ + nmax
                cycle.append(((params, m, j), nmax, 12.0 * kmax * kmax, npoints))
            self.cycles.append(cycle)

    def warm_up(self, inproc: bool) -> None:
        (params, m, j), _, rmax, npoints = self.cycles[0][0]
        nv.spectrum_cross_check(params, m, j, 3, nv.RadialGrid(rmax, npoints))

    def run(self, item, inproc: bool):
        (params, m, j), nmax, rmax, npoints = item
        return nv.spectrum_cross_check(params, m, j, nmax, nv.RadialGrid(rmax, npoints))

    def check(self, item, reports) -> Outcome:
        nmax = item[1]
        out = _reports_outcome(reports, nmax)
        energies = [r.details.get("oracle_energy", math.nan) for r in reports]
        if not all(math.isfinite(e) and e < 0.0 for e in energies):
            out.problems.append(f"eigenvalues not finite and negative: {energies}")
        elif any(a >= b for a, b in zip(energies, energies[1:])):
            out.problems.append(f"eigenvalues not ascending: {energies}")
        return out


def _random_poly(rng: random.Random) -> oa.ParamPoly:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        jp = rng.randint(0, 2)
        kp = rng.randint(0, 2 - jp)
        terms[(jp, kp)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return oa.ParamPoly(terms)


def random_operator(rng: random.Random) -> oa.NormalOrderedOperator:
    """Four terms, one at each D order 0..3, x powers in [-2, 2], J/K degree <= 2.

    A fixed term structure keeps the cost of a triple within a factor of
    about 2 (p10 to p90); with 1 to 4 terms of random D order it spread over
    a factor of 12 and made the tail latency depend on the seed argument.
    """
    return oa.NormalOrderedOperator({(rng.randint(-2, 2), q): _random_poly(rng) for q in range(4)})


class Algebra:
    """The work of `verify-algebra --deg-check-max 20` plus seeded random operator triples."""

    TRIPLES_PER_CYCLE = 8
    SWEEP = range(-4, 21)
    TRIPLE_POWERS = range(-3, 4)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        fixed = [("identity_suite",), ("extra_identity_checks",), ("monomial_sweep",), ("ansatz",)]
        self.cycles = [
            fixed + [("triple", *(random_operator(rng) for _ in range(3)))
                     for _ in range(self.TRIPLES_PER_CYCLE)]
            for _ in range(CYCLES)
        ]
        self._identities = None

    def warm_up(self, inproc: bool) -> None:
        for item in self.cycles[0][:5]:
            self.run(item, inproc)

    def run(self, item, inproc: bool):
        kind = item[0]
        if kind == "identity_suite":
            self._identities = oa.identity_suite()
            return self._identities
        if kind == "extra_identity_checks":
            return oa.extra_identity_checks()
        if kind == "monomial_sweep":
            return [[oa.monomial_action(diff, k) for k in self.SWEEP] for _, diff in self._identities]
        if kind == "ansatz":
            return oa.solve_schrodinger_ansatz(oa.build_Ln())
        a, b, c = item[1:]
        ab = oa.compose(a, b)
        left = oa.compose(ab, c)
        right = oa.compose(a, oa.compose(b, c))
        spread = oa.compose(a, b + c)
        split = ab + oa.compose(a, c)
        images = [
            (oa.monomial_action(left, k), oa.monomial_action(right, k),
             oa.monomial_action(spread, k), oa.monomial_action(split, k))
            for k in self.TRIPLE_POWERS
        ]
        return left == right, spread == split, images

    def check(self, item, result) -> Outcome:
        kind = item[0]
        out = Outcome()
        if kind in ("identity_suite", "extra_identity_checks"):
            out.checks = len(result)
            bad = [name for name, diff in result if not diff.is_zero]
            out.check_fails = len(bad)
            out.problems += [f"identity not zero: {name}" for name in bad]
            if kind == "identity_suite" and len(result) != 6:
                out.problems.append(f"expected 6 identities, got {len(result)}")
        elif kind == "monomial_sweep":
            out.checks = len(result)
            out.check_fails = sum(any(images) for images in result)
            if out.check_fails:
                out.problems.append(f"{out.check_fails} identities have a nonzero monomial image")
        elif kind == "ansatz":
            out.checks = 1
            if len(result) != 2:
                out.check_fails = 1
                out.problems.append(f"expected 2 ansatz branches, got {len(result)}")
        else:
            assoc, distrib, images = result
            out.checks = 2
            out.check_fails = (not assoc) + (not distrib)
            if not (assoc and distrib):
                out.problems.append(f"canonical forms disagree: assoc={assoc} distrib={distrib}")
            if any(l != r or s != p for l, r, s, p in images):
                out.problems.append("monomial images disagree with the canonical verdict")
        return out


@dataclass(frozen=True)
class Invocation:
    """One `micz-su11` command line and what its output must look like."""

    label: str
    argv: tuple[str, ...]
    exits: frozenset[int]
    out_file: str | None   # document written by --out, else stdout is the document
    doc: str               # "csv", "json" or "algebra-text"
    rows: int
    cols: int = 0

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _readme_invocations(workdir: Path) -> list[Invocation]:
    def out(name):
        return str(workdir / name)

    ok, verdict = EXIT_OK, EXIT_VERDICT
    return [
        Invocation("spectrum-hydrogen", ("spectrum", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3"),
                   ok, None, "csv", 3, 9),
        Invocation("spectrum-monopole", ("spectrum", "--s", "1/2", "--c1", "1", "--c2", "0", "--m", "1/2",
                                         "--j", "1/2", "--nmax", "1"), ok, None, "csv", 1, 9),
        Invocation("eigenfunction-radial", ("eigenfunction", "--s", "0", "--m", "0", "--j", "0", "--n", "2",
                                            "--npoints", "64", "--out", out("chi.csv")),
                   ok, out("chi.csv"), "csv", 64, 4),
        Invocation("eigenfunction-angular", ("eigenfunction", "--s", "1/2", "--c1", "1", "--m", "1/2",
                                             "--j", "1/2", "--kind", "angular", "--npoints", "64",
                                             "--out", out("z.csv")), ok, out("z.csv"), "csv", 64, 3),
        Invocation("verify-algebra", ("verify-algebra", "--deg-check-max", "20"),
                   verdict, None, "algebra-text", 11),
        Invocation("verify-states", ("verify-states", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3",
                                     "--npoints", "1200", "--out", out("reports.json")),
                   verdict, out("reports.json"), "json", 18),
        Invocation("oracle-readme", ("oracle", "--s", "0", "--m", "0", "--j", "0", "--nmax", "3", "--rmax", "60",
                                     "--npoints", "6000", "--format", "json", "--out", out("oracle.json")),
                   verdict, out("oracle.json"), "json", 3),
    ]


def _sector_flags(params, m, j) -> tuple[str, ...]:
    # "--m=-1/2": argparse reads a separate "-1/2" as an option name
    return (f"--s={params.s}", f"--c1={params.c1!r}", f"--c2={params.c2!r}", f"--m={m}", f"--j={j}")


def _finite_cells(rows) -> bool:
    for row in rows:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


def _finite_json(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_json(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_json(v) for v in obj)
    return True


class Cli:
    """Fresh `python -m micz_su11.cli` processes, one at a time, in a closed loop with one client.

    With `inproc` (the traced run) the same command lines go through
    `cli.main(argv)` in this process with stdout and stderr captured.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        strata = sector_strata()
        eig_draw, oracle_draw = SectorDraw(rng, strata), SectorDraw(rng, strata)
        self.workdir = workdir
        readme = _readme_invocations(workdir)
        self.cycles = []
        for _ in range(CYCLES):
            params, m, j = eig_draw()
            eig = Invocation("eigenfunction-high-n",
                             ("eigenfunction", *_sector_flags(params, m, j), "--n", str(j + 31)),
                             EXIT_OK, None, "csv", 512, 4)
            params, m, j = oracle_draw()
            orc = Invocation("oracle-defaults", ("oracle", *_sector_flags(params, m, j), "--nmax", "6"),
                             EXIT_VERDICT, None, "csv", 6, 6)
            self.cycles.append(readme + [eig, orc])
        self.src = Path(micz_su11.__file__).resolve().parent.parent

    def warm_up(self, inproc: bool) -> None:
        self._main_inproc(self.cycles[0][0].argv)

    def _main_inproc(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejecting the command line
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()

    def run(self, inv: Invocation, inproc: bool):
        if inproc:
            return self._main_inproc(inv.argv)
        env = {**os.environ, "PYTHONPATH": str(self.src)}
        proc = subprocess.run([sys.executable, "-m", "micz_su11.cli", *inv.argv], cwd=self.workdir,
                              env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, inv: Invocation, result) -> Outcome:
        code, stdout = result
        out = Outcome(checks=1, check_fails=int(code != 0))
        if code not in inv.exits:
            out.problems.append(f"{inv.label}: exit {code} not in {sorted(inv.exits)}")
            return out
        text = stdout
        if inv.out_file:
            path = Path(inv.out_file)
            if not path.is_file():
                out.problems.append(f"{inv.label}: {path.name} was not written")
                return out
            text = path.read_text(encoding="utf-8")
            path.unlink()  # so that the next cycle cannot read a stale document
        if inv.doc == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if not rows or len(rows[0]) != inv.cols or any(len(r) != inv.cols for r in rows):
                out.problems.append(f"{inv.label}: expected {inv.cols} CSV columns")
            elif len(rows) - 1 != inv.rows:
                out.problems.append(f"{inv.label}: expected {inv.rows} rows, got {len(rows) - 1}")
            elif not _finite_cells(rows[1:]):
                out.problems.append(f"{inv.label}: non-finite value in CSV")
            elif inv.subcommand == "oracle":
                out.worst = max(float(r[4]) for r in rows[1:]) / 1e-4
        elif inv.doc == "json":
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                out.problems.append(f"{inv.label}: JSON does not parse: {exc}")
                return out
            reports = doc.get("reports", [])
            if doc.get("schema") != SCHEMA:
                out.problems.append(f"{inv.label}: schema {doc.get('schema')!r}")
            elif len(reports) != inv.rows:
                out.problems.append(f"{inv.label}: expected {inv.rows} reports, got {len(reports)}")
            elif not _finite_json(doc):
                out.problems.append(f"{inv.label}: non-finite value in JSON")
            else:
                out.worst = max(r["residual"] / r["tolerance"] for r in reports)
        else:
            lines = stdout.splitlines()
            summary = re.fullmatch(r"(\d+)/(\d+) identities PASS", lines[-1]) if lines else None
            if len(lines) != inv.rows or summary is None or summary.group(2) != "6":
                out.problems.append(f"{inv.label}: unexpected verify-algebra report")
        return out


WORKLOADS = {"states": States, "oracle": Oracle, "algebra": Algebra, "cli": Cli}
