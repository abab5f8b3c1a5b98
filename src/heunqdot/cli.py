"""Command-line front end.

Subcommands: roots, spectrum, wavefunction, moments, validate, tables, report.
Output is deterministic (fixed %.6e float formatting, fixed row ordering), so
identical invocations produce byte-identical files. Published-value
mismatches are report content and exit 0; only internal errors exit nonzero.

Each option is declared once, in build_parser. An option left off the command
line takes its value from, in order: the environment variable HEUNQDOT_OUT
(for --out only), the config file (plain key=value lines, --config or
./heunqdot.conf), the built-in DEFAULTS. The config file may set the options
in DEFAULTS, each under its flag's long name (convention, format, out,
precision, n, l); any other key, or an empty value, is an error.
wavefunction --gnuplot plots the csv files, so it needs format csv. The
oracle's eigenvalues come from a self-converged Galerkin solve in a
Gaussian-weighted half-range polynomial basis; the node count of each is its
Ritz index, the k-th lowest value having k nodes by the oscillation theorem.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .model import SystemConfig, energy_center_of_mass, total_energy
from .oracle import validate_root
from .report import (build_report, build_tables, q6, render_text, solve_states,
                     verdict_row)
from .termination import GammaConvention, check_precision
from .wavefunction import (FloatRangeError, PolynomialSolution,
                           assemble_polynomial, moment, normalize)

ROOTS_HEADER = ["n", "l", "convention", "t_star", "omega", "eta",
                "effective_degree"]
SPECTRUM_HEADER = ["n", "l", "convention", "t_star", "omega", "eta", "Omega",
                   "omega_R", "n_R", "epsilon_cm", "E_total"]
WAVEFUNCTION_HEADER = ["r", "u", "R"]
MOMENTS_HEADER = ["n", "l", "convention", "t_star", "omega", "k", "value"]
VALIDATE_HEADER = ["n", "l", "convention", "t_star", "eta_analytic",
                   "eta_oracle", "oracle_nodes", "abs_delta", "residual",
                   "effective_degree", "classification"]
TABLES_HEADER = ["table_id", "row_key", "paper_value", "computed_value",
                 "abs_delta", "classification"]

# the options a config file may set, keyed by their flags' dests, with the
# values they take when neither a flag nor the config file gives them
DEFAULTS = {"convention": "table", "format": "csv", "out": ".",
            "precision": "1e-13", "n": "2..5", "l": "0..1"}


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


def _write(args: argparse.Namespace, rows: list[dict], header: list[str],
           name: str) -> Path:
    """Write rows to OUT/name.csv or OUT/name.json, as args.format says."""
    out = Path(args.out) / f"{name}.{args.format}"
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(row[h]) for h in header) for row in rows]
        out.write_text("\n".join(lines) + "\n")
    else:
        meta = {"version": __version__, "convention": args.convention.value,
                "precision": args.precision}
        payload = {"meta": meta,
                   "rows": [{h: row[h] for h in header} for row in rows]}
        out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def _states(args: argparse.Namespace) -> dict[tuple[int, int],
                                              tuple[PolynomialSolution, ...]]:
    """Per (n, l), l outer: the chain state at each root, or the one state
    at the omega override."""
    grid = [(n, l) for l in args.l for n in args.n]
    omega = getattr(args, "omega", None)
    if omega is not None:
        t = 1.0 / math.sqrt(omega)
        return {(n, l): (assemble_polynomial(n, l, t,
                                             convention=args.convention),)
                for n, l in grid}
    solved = solve_states(((args.convention, n, l) for n, l in grid),
                          args.precision)
    return {(n, l): solved[(args.convention, n, l)].solutions
            for n, l in grid}


def _each_state(args: argparse.Namespace) -> list[PolynomialSolution]:
    return [sol for found in _states(args).values() for sol in found]


def _state_columns(args: argparse.Namespace, sol: PolynomialSolution) -> dict:
    """The n, l, convention, t_star and omega columns of a per-state row."""
    return {"n": sol.n, "l": sol.l, "convention": args.convention.value,
            "t_star": q6(sol.t_star), "omega": q6(sol.omega)}


def cmd_roots(args: argparse.Namespace) -> list[Path]:
    rows = [{**_state_columns(args, sol), "eta": q6(sol.eta),
             "effective_degree": sol.effective_degree}
            for sol in _each_state(args)]
    out = _write(args, rows, ROOTS_HEADER, "roots")
    print(f"{len(rows)} roots -> {out}")
    return [out]


def cmd_spectrum(args: argparse.Namespace) -> list[Path]:
    rows = []
    for sol in _each_state(args):
        config = SystemConfig(trap_frequency_Omega=2 * sol.omega, n_R=args.nr)
        eps = energy_center_of_mass(config)
        rows.append({**_state_columns(args, sol), "eta": q6(sol.eta),
                     "Omega": q6(2 * sol.omega), "omega_R": q6(config.omega_R),
                     "n_R": args.nr, "epsilon_cm": q6(eps),
                     "E_total": q6(total_energy(eps, sol.eta))})
    out = _write(args, rows, SPECTRUM_HEADER, "spectrum")
    print(f"{len(rows)} spectrum rows -> {out}")
    return [out]


def cmd_wavefunction(args: argparse.Namespace) -> list[Path]:
    import numpy as np

    r = np.linspace(*args.grid)
    # every state is normalized before any file is written
    states = {key: tuple(map(normalize, found))
              for key, found in _states(args).items()}
    written: list[Path] = []
    for (n, l), found in states.items():
        if not found:
            print(f"no roots for (n={n}, l={l}); nothing to emit")
            continue
        for idx, state in enumerate(found):
            u, R = state.sample(r)
            tag = (f"root{idx}" if args.omega is None
                   else f"omega{args.omega:g}")
            rows = [{"r": q6(ri), "u": q6(ui), "R": q6(Ri)}
                    for ri, ui, Ri in zip(r, u, R)]
            out = _write(args, rows, WAVEFUNCTION_HEADER,
                         f"wavefunction_n{n}_l{l}_{tag}")
            written.append(out)
            print(f"(n={n}, l={l}, {tag}) -> {out}")
    if args.gnuplot and written:
        gp = Path(args.out) / "wavefunction.gp"
        plots = ", ".join(f"'{p.name}' using 1:3 with lines title '{p.stem}'"
                          for p in written)
        gp.write_text("set datafile separator ','\nset key autotitle\n"
                      f"set xlabel 'r [Bohr]'\nset ylabel 'R(r)'\nplot {plots}\n")
        written.append(gp)
        print(f"gnuplot script -> {gp}")
    return written


def cmd_moments(args: argparse.Namespace) -> list[Path]:
    rows = []
    for sol in _each_state(args):
        state = normalize(sol)
        rows += [{**_state_columns(args, sol), "k": k,
                  "value": q6(moment(state, k))} for k in args.k]
    out = _write(args, rows, MOMENTS_HEADER, "moments")
    print(f"{len(rows)} moments -> {out}")
    return [out]


def cmd_validate(args: argparse.Namespace) -> list[Path]:
    rows = [{**verdict_row(validate_root(normalize(sol))),
             "convention": args.convention.value}
            for sol in _each_state(args)]
    out = _write(args, rows, VALIDATE_HEADER, "validate")
    print(f"{len(rows)} validations -> {out}")
    for row in rows:
        print(f"  n={row['n']} l={row['l']} t*={row['t_star']:.5f}: "
              f"{row['classification']}")
    return [out]


def cmd_tables(args: argparse.Namespace) -> list[Path]:
    rows = build_tables(args.convention, args.precision)
    out = _write(args, rows, TABLES_HEADER, "tables")
    n_mismatch = sum(1 for r in rows if r["classification"] == "mismatch")
    print(f"{len(rows)} table rows -> {out} ({n_mismatch} mismatches; "
          "mismatches are report content, not errors)")
    return [out]


def cmd_report(args: argparse.Namespace) -> list[Path]:
    rep = build_report(args.n, args.l, args.convention,
                       precision=args.precision)
    outdir = Path(args.out)
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


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand's namespace carries its cmd_* as run, looked up when
    this is called, so that a rebound module attribute (as perfbench's
    tracing makes) is what runs."""
    parser = argparse.ArgumentParser(
        prog="heunqdot",
        description="Polynomial states of the two-electron 2D quantum dot: "
                    "roots, spectra, wavefunctions, and the validation dossier.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, ranges=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        # the options of DEFAULTS stay None here; resolve() fills them
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--convention",
                       choices=[c.value for c in GammaConvention])
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--precision", type=float, help="root refinement "
                       f"width (default {DEFAULTS['precision']})")
        if ranges:
            p.add_argument("--n", help="state labels, e.g. 2..5 "
                           f"(default {DEFAULTS['n']})")
            p.add_argument("--l", help="angular momenta, e.g. 0..1 "
                           f"(default {DEFAULTS['l']})")
        return p

    def omega(p):
        p.add_argument("--omega", type=float,
                       help="fixed omega instead of the roots")

    command("roots", cmd_roots, "determinant roots per (n, l)")
    p = command("spectrum", cmd_spectrum, "relative + center-of-mass energies")
    p.add_argument("--nr", type=int, default=0, help="CM quantum number n_R")
    omega(p)
    p = command("wavefunction", cmd_wavefunction,
                "u(r), R(r) samples per root")
    p.add_argument("--grid", default="0:30:1000", help="r0:r1:steps")
    omega(p)
    p.add_argument("--gnuplot", action="store_true",
                   help="also emit a gnuplot script (format csv only)")
    p = command("moments", cmd_moments, "<r^k> for constructed states")
    p.add_argument("--k", default="1,2", help="comma list of powers")
    omega(p)
    command("validate", cmd_validate, "oracle verdict per root")
    command("tables", cmd_tables, "published-table reproduction rows",
            ranges=False)
    command("report", cmd_report, "full validation dossier (json + text)")
    return parser


def _powers(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def resolve(args: argparse.Namespace) -> None:
    """Fill every option not given as a flag (HEUNQDOT_OUT for out, then the
    config file, then DEFAULTS), then convert and check every value."""
    config = read_config(args.config)
    unknown = sorted(set(config) - set(DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(DEFAULTS))}")
    empty = sorted(key for key, value in config.items() if not value)
    if empty:
        raise ValueError(
            f"empty value for config key(s) {', '.join(map(repr, empty))}")
    options = vars(args)
    env = {"out": os.environ.get("HEUNQDOT_OUT")}
    for key in DEFAULTS.keys() & options.keys():
        if options[key] is None:
            options[key] = env.get(key) or config.get(key) or DEFAULTS[key]
    for key, convert in (("precision", float), ("convention", GammaConvention),
                         ("n", parse_range), ("l", parse_range),
                         ("k", _powers)):
        if key in options:
            try:
                options[key] = convert(options[key])
            except ValueError:
                raise ValueError(f"bad {key} {options[key]!r}") from None
    if "grid" in options:
        options["grid"] = parse_grid(options["grid"])

    omega = options.get("omega")
    if omega is not None and not 0 < omega < math.inf:
        raise ValueError("omega override must be finite and positive, "
                         f"got {omega:g}")
    if args.format not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    if options.get("gnuplot") and args.format != "csv":
        raise ValueError(f"--gnuplot needs format csv, got {args.format}")
    check_precision(args.precision)
    if args.command not in ("tables", "report") and (not args.n or not args.l):
        raise ValueError(f"{args.command} requires non-empty n and l ranges")
    for name, values, low in (("n", options.get("n", []), 1),
                              ("l", options.get("l", []), 0),
                              ("moment power k", options.get("k", []), 0),
                              ("n_R", [options.get("nr", 0)], 0)):
        if any(v < low for v in values):
            raise ValueError(
                f"{name} must be at least {low}, got {min(values)}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolve(args)
    except ValueError as exc:  # bad config, range, grid or option value
        parser.error(str(exc))
    try:
        args.run(args)
    except FloatRangeError as exc:  # a state the floats cannot hold
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
