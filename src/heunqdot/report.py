"""Table reproduction and the validation dossier.

Every comparison against a published value is report content: a mismatch is
documented, never raised. Two frequency readings are carried side by side for
the wavefunction tables, because the published text both ties omega to the
determinant roots and later fixes omega = 0.01 Ha:

* omega_root:  the state is built at its own root, t = t_star;
* omega_fixed: the state is built at omega = 0.01 Ha (t = 10) regardless.

The dossier also quantifies the difference between the recurrence coefficient
chain and the explicitly printed closed-form coefficients, records which
published entries each reading reproduces, and attaches the independent
eigensolver's verdict per root.

A report solves each (convention, n, l) once, at the report's precision, and
assembles the chain state at each of its roots once (solve_states, which the
command line shares). Every section reads those states: the roots section
and the coefficient formulas their chains, and the oracle verdicts the
report convention's states as assembled. Only the table 4-5 readings print
a norm, so only the states of the published grid are normalized.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import __version__
from .oracle import oscillator_spectrum, validate_oscillator, validate_root
from .reference_data import load_reference
from .termination import (
    PRECISION,
    GammaConvention,
    RootSet,
    printed_series_coefficients,
    solve_termination,
)
from .wavefunction import (PolynomialSolution, assemble_polynomial, moment,
                           normalize)

FIXED_OMEGA = 0.01          # Hartree; the alternative published reading
ROOT_MATCH_RTOL = 5e-5      # four significant figures
ETA_MATCH_ATOL = 5e-5       # four decimal places
R_MEAN_BRACKET = (1.0, 50.0)  # Bohr; loose sanity bracket for <r>
PUBLISHED_N = (2, 3, 4, 5)
PUBLISHED_L = (0, 1)
PUBLISHED_GRID = tuple((n, l) for l in PUBLISHED_L for n in PUBLISHED_N)
# the gamma-factor conventions whose roots the dossier sets side by side
CONVENTIONS = (GammaConvention.TABLE, GammaConvention.LITERAL)

MATCH = "match"
MISMATCH = "mismatch"
ATTEMPT = "attempt"
REFERENCE_ONLY = "reference_only"
ASYMPTOTIC_FLAG = "asymptotic_flag"


def q6(x) -> float:
    """Quantize to the output format (%.6e) so files are byte-stable."""
    return float(f"{float(x):.6e}")


def _nearest(values: list[float], target: float) -> float | None:
    if not values:
        return None
    return min(values, key=lambda v: abs(v - target))


def _row(table_id, row_key, paper_value, computed_value, classification):
    delta = (abs(paper_value - computed_value)
             if (paper_value is not None and computed_value is not None) else None)
    return {
        "table_id": table_id,
        "row_key": row_key,
        "paper_value": q6(paper_value) if paper_value is not None else None,
        "computed_value": q6(computed_value) if computed_value is not None else None,
        "abs_delta": q6(delta) if delta is not None else None,
        "classification": classification,
    }


class RootStates(NamedTuple):
    """The roots of one (convention, n, l) and the chain state at each."""

    rootset: RootSet
    solutions: tuple[PolynomialSolution, ...]


Solved = dict[tuple[GammaConvention, int, int], RootStates]


def solve_states(keys, precision: float = PRECISION) -> Solved:
    """Solve every distinct (convention, n, l) of keys once, in first-seen
    order, and assemble the chain state at each of its roots, of degree
    n - 1."""
    solved: Solved = {}
    for conv, n, l in dict.fromkeys(keys):
        rootset = solve_termination(n, l, conv, precision=precision).rootset
        solved[(conv, n, l)] = RootStates(rootset, tuple(
            assemble_polynomial(n, l, root.t_star, convention=conv,
                                at_root=True)
            for root in rootset.roots))
    return solved


Reading = tuple[float, float]  # (N, <r>) of one state
Readings = dict[tuple[int, int], tuple[list[tuple[float, Reading]], Reading]]


def _read(sol: PolynomialSolution) -> Reading:
    """N and <r> of the state, which this normalizes."""
    state = normalize(sol)
    return state.N, moment(state, 1)


def _chain_readings(solved: Solved, convention: GammaConvention) -> Readings:
    """Per published (n, l): the chain state at each root, as (t*, reading)
    pairs, and the chain state at FIXED_OMEGA."""
    t_fixed = 1.0 / math.sqrt(FIXED_OMEGA)
    return {(n, l): ([(sol.t_star, _read(sol))
                      for sol in solved[(convention, n, l)].solutions],
                     _read(assemble_polynomial(n, l, t_fixed,
                                               convention=convention)))
            for n, l in PUBLISHED_GRID}


def build_tables(convention: GammaConvention = GammaConvention.TABLE,
                 precision: float = PRECISION) -> list[dict]:
    """Side-by-side rows for every published table cell."""
    solved = solve_states(((convention, n, l) for n, l in PUBLISHED_GRID),
                          precision)
    readings = _chain_readings(solved, convention)
    return _table_rows(solved, readings, convention)


def _table_rows(solved: Solved, readings: Readings,
                convention: GammaConvention) -> list[dict]:
    ref = load_reference()
    rows: list[dict] = []

    for l, table_id in ((0, "table1"), (1, "table2")):
        published = ref.roots(l)
        for n in PUBLISHED_N:
            computed = [s.t_star for s in solved[(convention, n, l)].solutions]
            for i, pub in enumerate(published[n], start=1):
                near = _nearest(computed, pub)
                cls = (MATCH if near is not None
                       and abs(near - pub) <= ROOT_MATCH_RTOL * abs(pub)
                       else MISMATCH)
                rows.append(_row(table_id, f"n{n}.root{i}", pub, near, cls))
            if ref.asymptotic(n, l):
                rows.append(_row(table_id, f"n{n}.asymptotic", 0.0, None,
                                 ASYMPTOTIC_FLAG))
            for i, pub in enumerate(ref.comparison_roots(l).get(n, ()), start=1):
                rows.append(_row(table_id, f"n{n}.comparison{i}", pub, None,
                                 REFERENCE_ONLY))

    energies = ref.energies()
    pub_first_roots = ref.roots(0)
    for n in PUBLISHED_N:
        row = energies[n]
        rows.append(_row("table3", f"n{n}.eps_prime", row["eps_prime"], None,
                         REFERENCE_ONLY))
        rows.append(_row("table3", f"n{n}.eps_int", row["eps_int"], None,
                         REFERENCE_ONLY))
        pub = pub_first_roots[n][0]
        near = min(solved[(convention, n, 0)].solutions, default=None,
                   key=lambda s: abs(s.t_star - pub))
        eta = near.eta if near is not None else None
        cls = (MATCH if eta is not None and abs(eta - row["eta"]) <= ETA_MATCH_ATOL
               else MISMATCH)
        rows.append(_row("table3", f"n{n}.eta", row["eta"], eta, cls))

    for (n, l), (at_roots, fixed) in readings.items():
        pub_n = ref.normalization(n, l)
        pub_r = ref.r_mean(n, l)
        keyed = [(f"n{n}.l{l}.t{t:.5f}.omega_root", reading)
                 for t, reading in at_roots]
        keyed.append((f"n{n}.l{l}.omega_fixed", fixed))
        for key, (N, r_mean) in keyed:
            rows.append(_row("table4", key, pub_n, N, ATTEMPT))
            rows.append(_row("table5", key, pub_r, r_mean, ATTEMPT))
    return rows


def _attempt(t: float, chain: float, printed: float, published: float) -> dict:
    return {
        "t_star": q6(t),
        "computed": q6(chain),
        "abs_delta": q6(abs(chain - published)),
        "computed_printed_coeffs": q6(printed),
        "abs_delta_printed": q6(abs(printed - published)),
    }


def _attempt_row(n: int, l: int, published: float, per_root: list[dict],
                 fixed: float) -> dict:
    return {"n": n, "l": l, "published": q6(published), "omega_root": per_root,
            "omega_fixed": {"computed": q6(fixed),
                            "abs_delta": q6(abs(fixed - published))}}


def _dual_reading_attempts(readings: Readings) -> tuple[list[dict], list[dict]]:
    """Tables 4-5 under both omega readings, plus the printed-coefficient value."""
    ref = load_reference()
    norm_rows, mom_rows = [], []
    for (n, l), (at_roots, (N_fixed, r_fixed)) in readings.items():
        pub_n = ref.normalization(n, l)
        pub_r = ref.r_mean(n, l)
        per_root_n, per_root_r = [], []
        for t, (N, r_mean) in at_roots:
            N_printed, r_printed = _read(assemble_polynomial(
                n, l, t, A_chain=printed_series_coefficients(l, t)[:n + 1]))
            per_root_n.append(_attempt(t, N, N_printed, pub_n))
            per_root_r.append(_attempt(t, r_mean, r_printed, pub_r))
        norm_rows.append(_attempt_row(n, l, pub_n, per_root_n, N_fixed))
        mom_rows.append(_attempt_row(n, l, pub_r, per_root_r, r_fixed))
    return norm_rows, mom_rows


def verdict_row(rec) -> dict:
    """A ValidationRecord as a row, its floats quantized to the output."""
    d = rec._asdict()
    for k in ("t_star", "eta_analytic", "eta_oracle", "abs_delta", "residual"):
        d[k] = q6(d[k])
    return d


CAVEATS = [
    {
        "id": "gamma-index-conventions",
        "description": (
            "The displayed three-term recurrence and the printed closed form "
            "for the subdiagonal factors disagree by an index shift. The "
            "'table' convention (gamma_1 = 2n(1+alpha), shifted factors from "
            "p = 2) reproduces the published root tables; the 'literal' "
            "reading is computed alongside for comparison. Both are exact "
            "edits of the radial equation's own condition for a polynomial "
            "of degree n, whose factors are 4 gamma_q = 2q(n+1-q)(q+2l), "
            "q = 1..n: with (2l+1)/t replaced by 2l+1, every published "
            "4 gamma is 4 times one of them, and the list drops one, q = 2 "
            "for 'table' and q = n for 'literal' (checked in integers for "
            "n <= 60, l <= 5)."),
    },
    {
        "id": "omega-reading-ambiguity",
        "description": (
            "The published wavefunction tables are tied both to 'omega at the "
            "root' and to a fixed omega = 0.01 Ha in the surrounding text. "
            "Both readings are emitted side by side; for n = 2 the published "
            "normalization and <r> agree with the omega-at-root reading to "
            "about 1e-4 relative (exactly, when evaluated at the 4-decimal "
            "rounded roots)."),
    },
    {
        "id": "printed-vs-chain-coefficients",
        "description": (
            "The printed closed-form series coefficients differ from the "
            "recurrence chain from A_3 on (printed A_3 constant term 6(2l+1) "
            "vs 7(2l+1) from the literal recurrence; the table-consistent "
            "chain differs in the linear term instead). The published n >= 3 "
            "normalization values are reproduced by the printed coefficients, "
            "not by the chain; both are quantified per root."),
    },
    {
        "id": "published-root-8.3627",
        "description": (
            "The published n=5, l=1 root 8.3627 does not satisfy its own "
            "cleared determinant (exact rational evaluation gives about "
            "-43.4); the certified root of that determinant is 8.360269. The "
            "companion root 21.6111 matches to all published digits, so the "
            "underlying polynomial is the same and the printed entry is in "
            "error."),
    },
    {
        "id": "unlisted-root-n5-l0",
        "description": (
            "The n=5, l=0 determinant has a second positive root near "
            "21.2573 that the published table omits (its caption only claims "
            "'some roots')."),
    },
    {
        "id": "asymptotic-entries",
        "description": (
            "The published 0 entries (omega -> infinity, called asymptotic "
            "solutions) are not roots of the cleared determinants and are "
            "carried as metadata flags only; no wavefunction is constructed "
            "for them. No printed criterion explains why they appear for "
            "n = 2, 3, 5 but not n = 4."),
    },
    {
        "id": "cm-energy-factor",
        "description": (
            "The separated center-of-mass equation admits a factor-2 reading "
            "of its eigenvalue; the closed form epsilon = omega_R (n_R + 1) "
            "with a single label n_R is used as printed, although a 2D "
            "oscillator spectrum would normally carry a two-fold label."),
    },
    {
        "id": "mean-r-span",
        "description": (
            "The eight states whose <r> the publication tabulates span about "
            "3.7-22.8 Bohr under the omega-at-root reading, consistent with "
            "the claimed 3.7-18.7 Bohr. The state at the published root "
            "t = 21.6111 (n=5, l=1), whose wavefunction the publication never "
            "tabulates, has <r> of about 63.4 Bohr (quadrature-checked) and "
            "falls outside the [1, 50] Bohr sanity bracket."),
    },
    {
        "id": "oracle-verdict",
        "description": (
            "The independent spectral eigensolver (a Galerkin solve of the "
            "self-adjoint radial equation in a Gaussian-weighted half-range "
            "polynomial basis, self-converged between basis sizes N and "
            "1.5N) confirms the exactly solvable "
            "oscillator limit to better than 1e-6 relative, and with the "
            "Coulomb term on it reproduces the closed-form states eta = 1 "
            "(omega = 1/2, l = 0), 1/4 (omega = 1/12, l = 0) and 1/2 "
            "(omega = 1/6, l = 1), and the exact states of the radial "
            "equation's own polynomial condition at l = 3, 6, 10 and 15 "
            "with degree up to 12, to 1e-10 with their node counts (pinned "
            "in tests/test_oracle.py), "
            "but it classifies every analytic root state as DISCREPANT "
            "(few-percent energy offsets, order-one ODE residuals). The "
            "termination machinery is internally consistent (exact "
            "dense-determinant agreement). The discrepancy is the published "
            "condition itself, which is the radial equation's own condition "
            "with three exact edits: an omega-dependent "
            "1 + alpha = (2l+1)/t in place of 2l+1, every gamma multiplied "
            "by 4, and one factor dropped (see gamma-index-conventions). "
            "With the factor dropped, the n x n determinant makes A_n "
            "vanish, so the chain has degree n-1 while eta = (n+l+1) omega "
            "is the equation's eta for degree n."),
    },
]


def build_report(n_values=PUBLISHED_N, l_values=PUBLISHED_L,
                 convention: GammaConvention = GammaConvention.TABLE,
                 precision: float = PRECISION) -> dict:
    """The full validation dossier as one JSON-ready dict."""
    ref = load_reference()
    n_values = list(n_values)
    l_values = list(l_values)
    solved = solve_states([(conv, n, l) for conv in CONVENTIONS
                           for l in l_values for n in n_values]
                          + [(convention, n, l) for n, l in PUBLISHED_GRID],
                          precision)

    roots_section = []
    for conv in CONVENTIONS:
        for l in l_values:
            for n in n_values:
                rootset, solutions = solved[(conv, n, l)]
                published = ref.roots(l).get(n, ()) if l in PUBLISHED_L else ()
                entries = []
                for root, sol in zip(rootset.roots, solutions):
                    near = _nearest(list(published), root.t_star)
                    entries.append({
                        "t_star": q6(root.t_star),
                        "omega": q6(sol.omega),
                        "eta": q6(sol.eta),
                        "refinement_width": q6(root.refinement_width),
                        "effective_degree": sol.degree,
                        "trailing_coefficient": q6(sol.A_chain[-1]),
                        "nearest_published": q6(near) if near is not None else None,
                        "delta_published": q6(abs(near - root.t_star))
                        if near is not None else None,
                    })
                roots_section.append({
                    "n": n, "l": l, "convention": conv.value,
                    ASYMPTOTIC_FLAG: ref.asymptotic(n, l),
                    "roots": entries,
                })

    convention_differences = []
    for l in l_values:
        for n in n_values:
            t_table, t_literal = (
                [q6(s.t_star) for s in solved[(conv, n, l)].solutions]
                for conv in CONVENTIONS)
            convention_differences.append({
                "n": n, "l": l,
                "table_roots": t_table,
                "literal_roots": t_literal,
                "identical": t_table == t_literal,
            })

    oracle_rows = [verdict_row(validate_root(sol))
                   for l in l_values for n in n_values
                   for sol in solved[(convention, n, l)].solutions]
    # one Coulomb-off solve per l, up to node_target 3, serves every k <= 3
    spectra = {l: oscillator_spectrum(l) for l in (0, 1)}
    calibration = [verdict_row(validate_oscillator(k, l, spectra[l]))
                   for k, l in ((0, 0), (1, 0), (1, 1))]

    coeff_rows = []
    for n, l in PUBLISHED_GRID:
        for sol in solved[(convention, n, l)].solutions:
            printed = printed_series_coefficients(l, sol.t_star)[:n + 1]
            coeff_rows.append({
                "n": n, "l": l, "t_star": q6(sol.t_star),
                "chain": [q6(a) for a in sol.A_chain],
                "printed": [q6(a) for a in printed],
                "max_abs_diff": q6(max(abs(a - b)
                                       for a, b in zip(sol.A_chain, printed))),
            })

    readings = _chain_readings(solved, convention)
    norm_rows, mom_rows = _dual_reading_attempts(readings)
    r_all: list[float] = []
    r_paper_roots: list[float] = []
    for row in mom_rows:
        published_roots = ref.roots(row["l"]).get(row["n"], ())
        for entry in row["omega_root"]:
            r_all.append(entry["computed"])
            if any(abs(entry["t_star"] - p) <= ROOT_MATCH_RTOL * p
                   for p in published_roots):
                r_paper_roots.append(entry["computed"])
    mean_r = {
        "values_all_roots": r_all,
        "values_paper_roots": r_paper_roots,
        "min": q6(min(r_paper_roots)) if r_paper_roots else None,
        "max": q6(max(r_paper_roots)) if r_paper_roots else None,
        "sanity_bracket_bohr": list(R_MEAN_BRACKET),
        "within_bracket": bool(r_paper_roots) and all(
            R_MEAN_BRACKET[0] <= v <= R_MEAN_BRACKET[1] for v in r_paper_roots),
        "claimed_range_bohr": list(ref.r_mean_claimed_range()),
    }

    asymptotic_entries = [
        {"n": n, "l": l,
         "note": "published 0 entry (omega -> infinity); metadata only, "
                 "not a determinant root"}
        for l in l_values for n in n_values if ref.asymptotic(n, l)
    ]

    return {
        "meta": {"version": __version__, "convention": convention.value,
                 "precision": precision},
        "roots": roots_section,
        "convention_differences": convention_differences,
        "oracle": oracle_rows,
        "oscillator_calibration": calibration,
        "tables": _table_rows(solved, readings, convention),
        "normalization_attempts": norm_rows,
        "moment_attempts": mom_rows,
        "coefficient_formulas": coeff_rows,
        "mean_r": mean_r,
        "asymptotic_entries": asymptotic_entries,
        "caveats": CAVEATS,
    }


def render_text(report: dict) -> str:
    """Human-readable rendering of the dossier."""
    lines: list[str] = []
    meta = report["meta"]
    lines.append(f"heunqdot validation dossier (version {meta['version']}, "
                 f"convention {meta['convention']}, precision {meta['precision']:g})")
    lines.append("")

    lines.append("== determinant roots (t = 1/sqrt(omega)) ==")
    for block in report["roots"]:
        head = (f"n={block['n']} l={block['l']} [{block['convention']}]"
                + ("  [asymptotic 0 entry flagged]" if block[ASYMPTOTIC_FLAG] else ""))
        lines.append(head)
        if not block["roots"]:
            lines.append("  no positive roots")
        for r in block["roots"]:
            pub = ("" if r["nearest_published"] is None else
                   f"  nearest published {r['nearest_published']:.6g} "
                   f"(|d| = {r['delta_published']:.2e})")
            lines.append(f"  t* = {r['t_star']:.6f}  omega = {r['omega']:.6e}  "
                         f"eta = {r['eta']:.6e}  eff.deg = {r['effective_degree']}"
                         + pub)
    lines.append("")

    lines.append("== oracle verdicts (independent spectral eigensolver) ==")
    for row in report["oracle"]:
        lines.append(
            f"n={row['n']} l={row['l']} t*={row['t_star']:.5f}: "
            f"eta_analytic = {row['eta_analytic']:.6e}, nearest oracle eta = "
            f"{row['eta_oracle']:.6e} ({row['oracle_nodes']} nodes), "
            f"|delta| = {row['abs_delta']:.2e}, ODE residual = "
            f"{row['residual']:.3g}  ->  {row['classification']}")
    lines.append("")

    lines.append("== oscillator calibration (Coulomb off; must be CONFIRMED) ==")
    for row in report["oscillator_calibration"]:
        lines.append(f"degree {row['n']} l={row['l']}: eta = "
                     f"{row['eta_analytic']:g} vs oracle {row['eta_oracle']:.9f} "
                     f"-> {row['classification']}")
    lines.append("")

    lines.append("== published-table reproduction ==")
    for row in report["tables"]:
        pv = "" if row["paper_value"] is None else f"{row['paper_value']:.6e}"
        cv = "" if row["computed_value"] is None else f"{row['computed_value']:.6e}"
        dv = "" if row["abs_delta"] is None else f"{row['abs_delta']:.2e}"
        lines.append(f"{row['table_id']:7s} {row['row_key']:30s} pub={pv:13s} "
                     f"computed={cv:13s} |d|={dv:9s} {row['classification']}")
    lines.append("")

    mr = report["mean_r"]
    lines.append(f"== <r> sanity == min {mr['min']}, max {mr['max']} Bohr; "
                 f"bracket {mr['sanity_bracket_bohr']} "
                 f"{'OK' if mr['within_bracket'] else 'VIOLATED'}; "
                 f"claimed span {mr['claimed_range_bohr']}")
    lines.append("")

    lines.append("== caveats ==")
    for c in report["caveats"]:
        lines.append(f"[{c['id']}] {c['description']}")
    lines.append("")
    return "\n".join(lines)
