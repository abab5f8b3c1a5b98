"""Command-line front end.

Subcommands: roots, spectrum, wavefunction, moments, validate, tables, report.
Output is deterministic (fixed %.6e float formatting, fixed row ordering), so
identical invocations produce byte-identical files. Published-value
mismatches are report content and exit 0; only internal errors exit nonzero.

Configuration precedence: command-line flags > config file (plain key=value
lines, --config or ./heunqdot.conf) > built-in defaults. The config file may
set convention, format, out, precision, n and l; any other key, or an empty
value, is an error.
The single environment variable HEUNQDOT_OUT overrides the output directory
when --out is not given. The oracle's eigenvalues come from a self-converged
Galerkin solve in a Gaussian-weighted half-range polynomial basis; nodes are
counted on the basis's quadrature nodes below x = sqrt(omega) r = 11.994
and at that point.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .model import SystemConfig, energy_center_of_mass, total_energy
from .oracle import validate_root
from .report import (build_report, build_tables, q6, render_text, solve_states,
                     verdict_row)
from .termination import GammaConvention, check_precision
from .wavefunction import (FloatRangeError, PolynomialSolution,
                           assemble_polynomial, moment, normalize)

COMMANDS = ("roots", "spectrum", "wavefunction", "moments", "validate",
            "tables", "report")

ROOTS_HEADER = ["n", "l", "convention", "t_star", "omega", "eta",
                "effective_degree"]
SPECTRUM_HEADER = ["n", "l", "convention", "t_star", "omega", "eta", "Omega",
                   "omega_R", "n_R", "epsilon_cm", "E_total"]
WAVEFUNCTION_HEADER = ["r", "u", "R"]
MOMENTS_HEADER = ["n", "l", "convention", "t_star", "omega", "k", "value"]
VALIDATE_HEADER = ["n", "l", "convention", "t_star", "eta_analytic",
                   "eta_oracle", "oracle_nodes", "abs_delta", "residual",
                   "effective_degree", "classification"]
CONFIG_KEYS = frozenset({"convention", "format", "out", "precision", "n", "l"})

TABLES_HEADER = ["table_id", "row_key", "paper_value", "computed_value",
                 "abs_delta", "classification"]


@dataclass
class RunSpec:
    command: str
    n_range: list[int] = field(default_factory=lambda: [2, 3, 4, 5])
    l_range: list[int] = field(default_factory=lambda: [0, 1])
    omega_override: float | None = None
    convention: GammaConvention = GammaConvention.TABLE
    output_format: str = "csv"
    output_path: str = "."
    grid: tuple[float, float, int] = (0.0, 30.0, 1000)
    moments_k: list[int] = field(default_factory=lambda: [1, 2])
    precision: float = 1e-13
    n_R: int = 0
    gnuplot: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.omega_override is not None and not (
                0 < self.omega_override < math.inf):
            raise ValueError("omega override must be finite and positive, "
                             f"got {self.omega_override:g}")
        if self.output_format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        check_precision(self.precision)
        if self.command not in ("tables", "report") and (
                not self.n_range or not self.l_range):
            raise ValueError(f"{self.command} requires non-empty n and l ranges")
        for name, values, low in (("n", self.n_range, 1),
                                  ("l", self.l_range, 0),
                                  ("moment power k", self.moments_k, 0),
                                  ("n_R", [self.n_R], 0)):
            if any(v < low for v in values):
                raise ValueError(
                    f"{name} must be at least {low}, got {min(values)}")


def parse_range(text: str) -> list[int]:
    """Accepts '3', '2..5' and '2,4'; '3..2' is an empty range."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return sorted(set(out))


def parse_grid(text: str) -> tuple[float, float, int]:
    """'r0:r1:steps' with finite r1 > r0 >= 0 and steps >= 2."""
    try:
        r0, r1, steps = text.split(":")
        r0, r1, steps = float(r0), float(r1), int(steps)
    except ValueError:
        raise ValueError(f"bad grid {text!r}: expected r0:r1:steps") from None
    if not (math.isfinite(r1) and r1 > r0 >= 0 and steps >= 2):
        raise ValueError(f"bad grid {text!r}")
    return r0, r1, steps


def read_config(path: str | None) -> dict[str, str]:
    """Plain key=value lines; '#' starts a comment."""
    if path is None:
        path = "heunqdot.conf"
        if not Path(path).exists():
            return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: "
                         f"{exc.strerror or exc}") from None
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def write_rows(rows: list[dict], header: list[str], path: Path,
               output_format: str, meta: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    if output_format == "csv":
        out = path.parent / (path.name + ".csv")
        lines = [",".join(header)]
        lines += [",".join(_fmt(row[h]) for h in header) for row in rows]
        out.write_text("\n".join(lines) + "\n")
    else:
        out = path.parent / (path.name + ".json")
        payload = {"meta": meta,
                   "rows": [{h: row[h] for h in header} for row in rows]}
        out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def _meta(spec: RunSpec) -> dict:
    return {"version": __version__, "convention": spec.convention.value,
            "precision": spec.precision}


def _states(spec: RunSpec) -> dict[tuple[int, int],
                                   tuple[PolynomialSolution, ...]]:
    """Per (n, l), l outer: the chain state at each root, or the one state
    at the omega override."""
    grid = [(n, l) for l in spec.l_range for n in spec.n_range]
    if spec.omega_override is not None:
        t = 1.0 / math.sqrt(spec.omega_override)
        return {(n, l): (assemble_polynomial(n, l, t,
                                             convention=spec.convention),)
                for n, l in grid}
    solved = solve_states(((spec.convention, n, l) for n, l in grid),
                          spec.precision)
    return {(n, l): solved[(spec.convention, n, l)].solutions
            for n, l in grid}


def _each_state(spec: RunSpec) -> list[PolynomialSolution]:
    return [sol for found in _states(spec).values() for sol in found]


def _state_columns(spec: RunSpec, sol: PolynomialSolution) -> dict:
    """The n, l, convention, t_star and omega columns of a per-state row."""
    return {"n": sol.n, "l": sol.l, "convention": spec.convention.value,
            "t_star": q6(sol.t_star), "omega": q6(sol.omega)}


def cmd_roots(spec: RunSpec) -> list[Path]:
    rows = [{**_state_columns(spec, sol), "eta": q6(sol.eta),
             "effective_degree": sol.effective_degree}
            for sol in _each_state(spec)]
    out = write_rows(rows, ROOTS_HEADER, Path(spec.output_path) / "roots",
                     spec.output_format, _meta(spec))
    print(f"{len(rows)} roots -> {out}")
    return [out]


def cmd_spectrum(spec: RunSpec) -> list[Path]:
    rows = []
    for sol in _each_state(spec):
        config = SystemConfig(trap_frequency_Omega=2 * sol.omega,
                              n_R=spec.n_R)
        eps = energy_center_of_mass(config)
        rows.append({**_state_columns(spec, sol), "eta": q6(sol.eta),
                     "Omega": q6(2 * sol.omega), "omega_R": q6(config.omega_R),
                     "n_R": spec.n_R, "epsilon_cm": q6(eps),
                     "E_total": q6(total_energy(eps, sol.eta))})
    out = write_rows(rows, SPECTRUM_HEADER, Path(spec.output_path) / "spectrum",
                     spec.output_format, _meta(spec))
    print(f"{len(rows)} spectrum rows -> {out}")
    return [out]


def cmd_wavefunction(spec: RunSpec) -> list[Path]:
    import numpy as np

    r0, r1, steps = spec.grid
    r = np.linspace(r0, r1, steps)
    # every state is normalized before any file is written
    states = {key: tuple(map(normalize, found))
              for key, found in _states(spec).items()}
    written: list[Path] = []
    for (n, l), found in states.items():
        if not found:
            print(f"no roots for (n={n}, l={l}); nothing to emit")
            continue
        for idx, state in enumerate(found):
            u, R = state.sample(r)
            tag = (f"root{idx}" if spec.omega_override is None
                   else f"omega{spec.omega_override:g}")
            rows = [{"r": q6(ri), "u": q6(ui), "R": q6(Ri)}
                    for ri, ui, Ri in zip(r, u, R)]
            base = Path(spec.output_path) / f"wavefunction_n{n}_l{l}_{tag}"
            out = write_rows(rows, WAVEFUNCTION_HEADER, base,
                             spec.output_format, _meta(spec))
            written.append(out)
            print(f"(n={n}, l={l}, {tag}) -> {out}")
    if spec.gnuplot and written:
        gp = Path(spec.output_path) / "wavefunction.gp"
        plots = ", ".join(
            f"'{p.name}' using 1:3 with lines title '{p.stem}'"
            for p in written if p.suffix == ".csv")
        gp.write_text("set datafile separator ','\nset key autotitle\n"
                      f"set xlabel 'r [Bohr]'\nset ylabel 'R(r)'\nplot {plots}\n")
        written.append(gp)
        print(f"gnuplot script -> {gp}")
    return written


def cmd_moments(spec: RunSpec) -> list[Path]:
    rows = []
    for sol in _each_state(spec):
        state = normalize(sol)
        rows += [{**_state_columns(spec, sol), "k": k,
                  "value": q6(moment(state, k))} for k in spec.moments_k]
    out = write_rows(rows, MOMENTS_HEADER, Path(spec.output_path) / "moments",
                     spec.output_format, _meta(spec))
    print(f"{len(rows)} moments -> {out}")
    return [out]


def cmd_validate(spec: RunSpec) -> list[Path]:
    rows = [{**verdict_row(validate_root(normalize(sol))),
             "convention": spec.convention.value}
            for sol in _each_state(spec)]
    out = write_rows(rows, VALIDATE_HEADER, Path(spec.output_path) / "validate",
                     spec.output_format, _meta(spec))
    print(f"{len(rows)} validations -> {out}")
    for row in rows:
        print(f"  n={row['n']} l={row['l']} t*={row['t_star']:.5f}: "
              f"{row['classification']}")
    return [out]


def cmd_tables(spec: RunSpec) -> list[Path]:
    rows = build_tables(spec.convention, spec.precision)
    out = write_rows(rows, TABLES_HEADER, Path(spec.output_path) / "tables",
                     spec.output_format, _meta(spec))
    n_mismatch = sum(1 for r in rows if r["classification"] == "mismatch")
    print(f"{len(rows)} table rows -> {out} ({n_mismatch} mismatches; "
          "mismatches are report content, not errors)")
    return [out]


def cmd_report(spec: RunSpec) -> list[Path]:
    rep = build_report(spec.n_range, spec.l_range, spec.convention,
                       precision=spec.precision)
    outdir = Path(spec.output_path)
    outdir.mkdir(parents=True, exist_ok=True)
    jpath = outdir / "report.json"
    tpath = outdir / "report.txt"
    jpath.write_text(json.dumps(rep, indent=2) + "\n")
    tpath.write_text(render_text(rep))
    n_disc = sum(1 for row in rep["oracle"]
                 if row["classification"] == "DISCREPANT")
    print(f"report -> {jpath} and {tpath} "
          f"({len(rep['oracle'])} oracle verdicts, {n_disc} discrepant)")
    return [jpath, tpath]


_DISPATCH = {
    "roots": cmd_roots,
    "spectrum": cmd_spectrum,
    "wavefunction": cmd_wavefunction,
    "moments": cmd_moments,
    "validate": cmd_validate,
    "tables": cmd_tables,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heunqdot",
        description="Polynomial states of the two-electron 2D quantum dot: "
                    "roots, spectra, wavefunctions, and the validation dossier.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ranges=True):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--convention", choices=["table", "literal"], default=None)
        p.add_argument("--format", dest="output_format",
                       choices=["csv", "json"], default=None)
        p.add_argument("--precision", type=float, default=None,
                       help="root refinement width (default 1e-13)")
        if ranges:
            p.add_argument("--n", default=None,
                           help="state labels, e.g. 2..5 (default 2..5)")
            p.add_argument("--l", default=None,
                           help="angular momenta, e.g. 0..1 (default 0..1)")

    p = sub.add_parser("roots", help="determinant roots per (n, l)")
    common(p)
    p = sub.add_parser("spectrum", help="relative + center-of-mass energies")
    common(p)
    p.add_argument("--nr", type=int, default=0, help="CM quantum number n_R")
    p.add_argument("--omega", type=float, default=None,
                   help="fixed omega instead of the roots")
    p = sub.add_parser("wavefunction", help="u(r), R(r) samples per root")
    common(p)
    p.add_argument("--grid", default="0:30:1000", help="r0:r1:steps")
    p.add_argument("--omega", type=float, default=None,
                   help="fixed omega instead of the roots")
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a gnuplot script")
    p = sub.add_parser("moments", help="<r^k> for constructed states")
    common(p)
    p.add_argument("--k", default="1,2", help="comma list of powers")
    p.add_argument("--omega", type=float, default=None,
                   help="fixed omega instead of the roots")
    p = sub.add_parser("validate", help="oracle verdict per root")
    common(p)
    p = sub.add_parser("tables", help="published-table reproduction rows")
    common(p, ranges=False)
    p = sub.add_parser("report", help="full validation dossier (json + text)")
    common(p)
    return parser


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    config = read_config(args.config)
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(CONFIG_KEYS))}")
    empty = sorted(key for key, value in config.items() if not value)
    if empty:
        raise ValueError(
            f"empty value for config key(s) {', '.join(map(repr, empty))}")
    convention = args.convention or config.get("convention", "table")
    output_format = args.output_format or config.get("format", "csv")
    out = (args.out or os.environ.get("HEUNQDOT_OUT")
           or config.get("out", "."))
    precision = (args.precision if args.precision is not None
                 else float(config.get("precision", 1e-13)))
    kwargs = dict(
        command=args.command,
        convention=GammaConvention(convention),
        output_format=output_format,
        output_path=out,
        precision=precision,
    )
    if hasattr(args, "n"):
        kwargs["n_range"] = parse_range(args.n if args.n is not None
                                        else config.get("n", "2..5"))
        kwargs["l_range"] = parse_range(args.l if args.l is not None
                                        else config.get("l", "0..1"))
    if getattr(args, "omega", None) is not None:
        kwargs["omega_override"] = args.omega
    if hasattr(args, "grid"):
        kwargs["grid"] = parse_grid(args.grid)
    if hasattr(args, "k"):
        kwargs["moments_k"] = [int(v) for v in args.k.split(",") if v.strip()]
    if hasattr(args, "nr"):
        kwargs["n_R"] = args.nr
    if getattr(args, "gnuplot", False):
        kwargs["gnuplot"] = True
    return RunSpec(**kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ValueError as exc:  # bad config, range, grid or option value
        parser.error(str(exc))
    try:
        _DISPATCH[spec.command](spec)
    except FloatRangeError as exc:  # a state the floats cannot hold
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
