"""Command-line front end.

Subcommands: roots, spectrum, wavefunction, moments, validate, tables, report.
Output is deterministic (fixed %.6e float formatting, fixed row ordering), so
identical invocations produce byte-identical files. Published-value
mismatches are report content and exit 0; only internal errors exit nonzero.

Each option is declared once, in OPTIONS; _commands lists each command's.
main reads a plain command line (the command, then its flags spelled in
full with values that convert) from those declarations itself, in
parse_plain, and builds the argparse parser from them (build_parser) only
when argparse has to answer: for help, --version, an abbreviated or
unknown flag, a value that starts with '-', a '--', a missing or bad
value, and to report a usage error. An option left off the command
line takes its value from, in order: the environment variable HEUNQDOT_OUT
(for --out only), the config file (plain key=value lines, --config or
./heunqdot.conf), the built-in DEFAULTS. The config file may set the options
in DEFAULTS, each under its flag's long name (convention, format, out,
precision, n, l); any other key, or an empty value, is an error. A
command ignores the keys it has no flag for: report, which always writes
json and text, takes no --format, as tables takes no --n or --l.
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
from .oracle import _ReachError, validate_root
from .report import (PUBLISHED_L, PUBLISHED_N, build_report, build_tables, q6,
                     render_text, solve_states, verdict_row)
from .termination import PRECISION, GammaConvention, check_precision
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
# values they take when neither a flag nor the config file gives them; the
# grid is the published one, each range written as parse_range reads it
DEFAULTS = {"convention": "table", "format": "csv", "out": ".",
            "precision": repr(PRECISION),
            "n": f"{PUBLISHED_N[0]}..{PUBLISHED_N[-1]}",
            "l": f"{PUBLISHED_L[0]}..{PUBLISHED_L[-1]}"}


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
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def _write(args: argparse.Namespace, rows: list[dict], header: list[str],
           name: str) -> Path:
    """Write rows to OUT/name.csv or OUT/name.json, as args.format says."""
    out = Path(args.out) / f"{name}.{args.format}"
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


def cmd_roots(args: argparse.Namespace) -> None:
    rows = [{**_state_columns(args, sol), "eta": q6(sol.eta),
             "effective_degree": sol.degree}
            for sol in _each_state(args)]
    out = _write(args, rows, ROOTS_HEADER, "roots")
    print(f"{len(rows)} roots -> {out}")


def cmd_spectrum(args: argparse.Namespace) -> None:
    rows = []
    for sol in _each_state(args):
        # trap Omega = 2 omega, centre of mass omega_R = 2 Omega and
        # epsilon = omega_R (n_R + 1): see the model docstring's CM note
        Omega = 2 * sol.omega
        omega_R = 2 * Omega
        eps = omega_R * (args.nr + 1)
        rows.append({**_state_columns(args, sol), "eta": q6(sol.eta),
                     "Omega": q6(Omega), "omega_R": q6(omega_R),
                     "n_R": args.nr, "epsilon_cm": q6(eps),
                     "E_total": q6(eps + sol.eta)})
    out = _write(args, rows, SPECTRUM_HEADER, "spectrum")
    print(f"{len(rows)} spectrum rows -> {out}")


def cmd_wavefunction(args: argparse.Namespace) -> None:
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
        print(f"gnuplot script -> {gp}")


def cmd_moments(args: argparse.Namespace) -> None:
    rows = []
    for sol in _each_state(args):
        state = normalize(sol)
        rows += [{**_state_columns(args, sol), "k": k,
                  "value": q6(moment(state, k))} for k in args.k]
    out = _write(args, rows, MOMENTS_HEADER, "moments")
    print(f"{len(rows)} moments -> {out}")


def cmd_validate(args: argparse.Namespace) -> None:
    rows = [{**verdict_row(validate_root(sol)),
             "convention": args.convention.value}
            for sol in _each_state(args)]
    out = _write(args, rows, VALIDATE_HEADER, "validate")
    print(f"{len(rows)} validations -> {out}")
    for row in rows:
        print(f"  n={row['n']} l={row['l']} t*={row['t_star']:.5f}: "
              f"{row['classification']}")


def cmd_tables(args: argparse.Namespace) -> None:
    rows = build_tables(args.convention, args.precision)
    out = _write(args, rows, TABLES_HEADER, "tables")
    n_mismatch = sum(1 for r in rows if r["classification"] == "mismatch")
    print(f"{len(rows)} table rows -> {out} ({n_mismatch} mismatches; "
          "mismatches are report content, not errors)")


def cmd_report(args: argparse.Namespace) -> None:
    rep = build_report(args.n, args.l, args.convention,
                       precision=args.precision)
    outdir = Path(args.out)
    jpath = outdir / "report.json"
    tpath = outdir / "report.txt"
    jpath.write_text(json.dumps(rep, indent=2) + "\n")
    tpath.write_text(render_text(rep))
    n_disc = sum(1 for row in rep["oracle"]
                 if row["classification"] == "DISCREPANT")
    print(f"report -> {jpath} and {tpath} "
          f"({len(rep['oracle'])} oracle verdicts, {n_disc} discrepant)")


# every option, declared once as the keywords of its argparse add_argument
# call; the options of DEFAULTS stay None here, and resolve() fills them
OPTIONS = {
    "config": {"help": "key=value config file"},
    "out": {"help": "output directory"},
    "convention": {"choices": [c.value for c in GammaConvention]},
    "format": {"choices": ["csv", "json"]},
    "precision": {"type": float, "help": "root refinement width "
                  f"(default {DEFAULTS['precision']})"},
    "n": {"help": f"state labels, e.g. 2..5 (default {DEFAULTS['n']})"},
    "l": {"help": f"angular momenta, e.g. 0..1 (default {DEFAULTS['l']})"},
    "nr": {"type": int, "default": 0, "help": "CM quantum number n_R"},
    "grid": {"default": "0:30:1000", "help": "r0:r1:steps"},
    "k": {"default": "1,2", "help": "moment powers, e.g. 1..3"},
    "omega": {"type": float, "help": "fixed omega instead of the roots"},
    "gnuplot": {"action": "store_true", "default": False,
                "help": "also emit a gnuplot script (format csv only)"},
}


def _commands() -> dict[str, tuple]:
    """Each command's run, summary and options, in help order. The cmd_* are
    looked up at each call, so that a rebound module attribute (as
    perfbench's tracing makes) is what runs."""
    common = ("config", "out", "convention", "format", "precision")
    ranges = common + ("n", "l")
    return {
        "roots": (cmd_roots, "determinant roots per (n, l)", ranges),
        "spectrum": (cmd_spectrum, "relative + center-of-mass energies",
                     ranges + ("nr", "omega")),
        "wavefunction": (cmd_wavefunction, "u(r), R(r) samples per root",
                         ranges + ("grid", "omega", "gnuplot")),
        "moments": (cmd_moments, "<r^k> for constructed states",
                    ranges + ("k", "omega")),
        "validate": (cmd_validate, "oracle verdict per root", ranges),
        "tables": (cmd_tables, "published-table reproduction rows", common),
        # the dossier is always json + text, so report takes no --format
        "report": (cmd_report, "full validation dossier (json + text)",
                   ("config", "out", "convention", "precision", "n", "l"))}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argparse parser, one add_argument per entry of OPTIONS that the
    command takes. main builds it only for the command lines parse_plain
    hands on (help, --version, an abbreviated or unknown flag, a value that
    starts with '-', a '--', a missing value, or one that does not convert
    or is not among its choices), and to report the errors of resolve() and
    of the run. Each subcommand's namespace carries its cmd_* as run.

    Every subcommand is created, so the choices and the top-level help are
    whole; given a command, only that subcommand's options are declared,
    the only ones a command line that names it can reach.
    """
    parser = argparse.ArgumentParser(
        prog="heunqdot",
        description="Polynomial states of the two-electron 2D quantum dot: "
                    "roots, spectra, wavefunctions, and the validation dossier.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, summary, options) in _commands().items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if command in (None, name):
            for option in options:
                p.add_argument(f"--{option}", **OPTIONS[option])
    return parser


def parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a plain command line, read from OPTIONS
    without building a parser: a command, then that command's flags, each
    spelled in full as --flag value or --flag=value (a store_true flag
    bare), every value converted by its type and within its choices; a
    repeated flag keeps its last value. Any other command line is None, for
    build_parser to answer."""
    commands = _commands()
    if not argv or argv[0] not in commands:
        return None
    run, _, options = commands[argv[0]]
    values = {"command": argv[0], "run": run,
              **{option: OPTIONS[option].get("default") for option in options}}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = flag[2:]
        if not flag.startswith("--") or option not in options:
            return None
        spec = OPTIONS[option]
        if spec.get("action") == "store_true":
            if eq:
                return None
            values[option] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        if value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[option] = value
    return argparse.Namespace(**values)


def resolve(args: argparse.Namespace) -> None:
    """Fill every option not given as a flag (HEUNQDOT_OUT for out, then the
    config file, then DEFAULTS), convert and check every value, then create
    the output directory."""
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
                         ("k", parse_range)):
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
    fmt = options.get("format", "csv")  # report takes no format
    if fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    if options.get("gnuplot") and fmt != "csv":
        raise ValueError(f"--gnuplot needs format csv, got {fmt}")
    check_precision(args.precision)
    if args.command not in ("tables", "report") and (not args.n or not args.l):
        raise ValueError(f"{args.command} requires non-empty n and l ranges")
    if options.get("k") == []:
        raise ValueError(f"{args.command} requires a non-empty k list")
    for name, values, low in (("n", options.get("n", []), 1),
                              ("l", options.get("l", []), 0),
                              ("moment power k", options.get("k", []), 0),
                              ("n_R", [options.get("nr", 0)], 0)):
        if any(v < low for v in values):
            raise ValueError(
                f"{name} must be at least {low}, got {min(values)}")
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {args.out!r}: "
                         f"{exc.strerror or exc}") from None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_plain(argv)
    if args is None:
        # the first argument that is not an option names the command
        args = build_parser(next((a for a in argv if not a.startswith("-")),
                                 None)).parse_args(argv)
    try:
        resolve(args)
    except ValueError as exc:  # bad config, option value or output directory
        build_parser(args.command).error(str(exc))
    try:
        args.run(args)
    # a state the floats cannot hold, or an l past the oracle's basis table
    except (FloatRangeError, _ReachError) as exc:
        build_parser(args.command).error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
