"""The three workloads: their operations, their references and their checks.

Each workload builds its operations from the seed (only the order of the
operations depends on it), computes its references with reference.py before
any pass runs, and checks every pass's outputs against them. A check returns
one list of problems per operation; an operation with a problem counts as
failed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference

REPORT_N = [2, 3, 4, 5]
REPORT_L = [0, 1]
HIGH_N = [6, 8, 10, 12, 14]
HIGH_L = [0, 1, 2]

# classification thresholds of the oracle verdict (relative |eta_a - eta_o|)
CONFIRMED_RTOL = 1e-6
DISCREPANT_RTOL = 1e-2
# report.json prints floats as %.6e: a relative rounding error below 5e-7
PRINTED_RTOL = 6e-7
ROOT_RTOL = 1e-10
EXACT_ETA_RTOL = 1e-9
NORM_ATOL = 1e-8
# the independent eigensolver must be at least this accurate for a check
RITZ_RTOL = 2e-4


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_roots(got, want, rtol):
    if len(got) != len(want):
        return [f"{len(got)} roots, reference has {len(want)}"]
    return [f"root {g!r} vs reference {w!r}" for g, w in zip(sorted(got), want)
            if _rel(g, w) > rtol]


class PublishedReport:
    """One operation: the full dossier, heunqdot report --n 2..5 --l 0..1."""

    name = "published-report"

    # full-precision outputs the worker collects after the first pass
    details = {"n": REPORT_N, "l": REPORT_L}

    def __init__(self, seed: int):
        # the seed is unused: the dossier has no order or draw
        self.roots = {(conv, n, l): reference.positive_roots(
                          reference.termination_polynomial(n, l, conv))
                      for conv in ("table", "literal")
                      for l in REPORT_L for n in REPORT_N}
        self.ritz = {}
        for l in REPORT_L:
            for n in REPORT_N:
                for t in self.roots[("table", n, l)]:
                    self.ritz[(n, l, t)] = reference.ritz_eigenvalues(1 / t ** 2, l)

    def ops(self, pass_dir: Path) -> list[dict]:
        return [{"argv": ["report", "--n", "2..5", "--l", "0..1",
                          "--out", str(pass_dir / "report")]}]

    def check(self, outputs, pass_dir: Path) -> list[list[str]]:
        path = pass_dir / "report" / "report.json"
        if not (pass_dir / "report" / "report.txt").stat().st_size:
            return [["report.txt is empty"]]
        return [self._check_report(json.loads(path.read_text()))]

    def _root_for(self, n, l, t_printed):
        for t in self.roots[("table", n, l)]:
            if _rel(t_printed, t) <= PRINTED_RTOL:
                return t
        return None

    def _check_report(self, rep) -> list[str]:
        problems = []
        blocks = {(b["convention"], b["n"], b["l"]): [r["t_star"] for r in b["roots"]]
                  for b in rep["roots"]}
        if set(blocks) != set(self.roots):
            problems.append(f"root blocks {sorted(blocks)}")
        for key, want in self.roots.items():
            problems += [f"{key}: {p}" for p in
                         _check_roots(blocks.get(key, []), want, PRINTED_RTOL)]

        rows = rep["oracle"]
        expected = sum(len(self.roots[("table", n, l)])
                       for l in REPORT_L for n in REPORT_N)
        if len(rows) != expected:
            problems.append(f"{len(rows)} oracle rows, expected {expected}")
        for row in rows:
            problems += self._check_verdict(row)

        calib = rep["oscillator_calibration"]
        if [(r["n"], r["l"]) for r in calib] != [(0, 0), (2, 0), (2, 1)]:
            problems.append("oscillator calibration rows")
        for r in calib:
            eta = r["n"] + r["l"] + 1  # 2k + l + 1 with degree n = 2k
            if (r["eta_analytic"] != eta or r["classification"] != "CONFIRMED"
                    or _rel(r["eta_oracle"], eta) > CONFIRMED_RTOL):
                problems.append(f"oscillator row {r}")
        return problems

    def _check_verdict(self, row) -> list[str]:
        n, l = row["n"], row["l"]
        t = self._root_for(n, l, row["t_star"])
        if t is None:
            return [f"oracle row at unknown root n={n} l={l} t={row['t_star']}"]
        eta_a = (n + l + 1) / t ** 2
        etas, errs = self.ritz[(n, l, t)]
        problems = []
        if _rel(row["eta_analytic"], eta_a) > PRINTED_RTOL:
            problems.append(f"eta_analytic {row['eta_analytic']} vs {eta_a}")
        k = min(range(len(etas)), key=lambda i: abs(etas[i] - row["eta_oracle"]))
        if errs[k] > RITZ_RTOL * etas[k]:
            problems.append(f"independent eigensolver unconverged at n={n} l={l}")
        if _rel(row["eta_oracle"], etas[k]) > PRINTED_RTOL + errs[k] / etas[k]:
            problems.append(f"eta_oracle {row['eta_oracle']} vs independent {etas[k]}")
        if row["oracle_nodes"] != k:
            problems.append(f"oracle nodes {row['oracle_nodes']}, independent {k}")
        # the verdict from the independent eigenvalue nearest to eta_analytic
        j = min(range(len(etas)), key=lambda i: abs(etas[i] - eta_a))
        delta = _rel(etas[j], eta_a)
        margin = errs[j] / eta_a + PRINTED_RTOL
        if delta < CONFIRMED_RTOL:
            verdict = "CONFIRMED"
        elif delta < DISCREPANT_RTOL:
            verdict = "NEAR"
        else:
            verdict = "DISCREPANT"
        if min(abs(delta - CONFIRMED_RTOL), abs(delta - DISCREPANT_RTOL)) <= margin:
            problems.append(f"verdict at n={n} l={l} not settled independently")
        elif verdict != row["classification"]:
            problems.append(f"verdict {row['classification']}, independent {verdict}")
        return problems

    def check_details(self, details) -> list[str]:
        """Full-precision roots to 1e-10 and unit norms to 1e-8."""
        problems = []
        for block in details["roots"]:
            key = (block["convention"], block["n"], block["l"])
            problems += [f"{key}: {p}" for p in
                         _check_roots(block["roots"], self.roots[key], ROOT_RTOL)]
        for st in details["states"]:
            norm = reference.norm_quadrature(st["y"], st["N"], st["omega"], st["l"])
            if abs(norm - 1.0) > NORM_ATOL:
                problems.append(f"norm {norm!r} at omega={st['omega']} l={st['l']}")
        if len(details["states"]) != 35:
            problems.append(f"{len(details['states'])} normalized states, expected 35")
        return problems


class HighNRoots:
    """One operation: solve_termination(n, l) for one state above the
    published grid; every state once per pass, in a seeded order."""

    name = "high-n-roots"
    details = None

    def __init__(self, seed: int):
        self.states = [(n, l) for n in HIGH_N for l in HIGH_L]
        random.Random(seed).shuffle(self.states)
        self.roots = {(n, l): reference.positive_roots(
                          reference.termination_polynomial(n, l))
                      for n, l in self.states}

    def ops(self, pass_dir: Path) -> list[dict]:
        return [{"n": n, "l": l} for n, l in self.states]

    def check(self, outputs, pass_dir: Path) -> list[list[str]]:
        return [[] if got is None else _check_roots(got, self.roots[state], ROOT_RTOL)
                for got, state in zip(outputs, self.states)]


class ExactStates:
    """One operation: one oracle eigensolve at a closed-form Coulomb-on state
    (N <= 8, l <= 2); all 60 states once per pass, in a seeded order."""

    name = "exact-states"
    details = None

    def __init__(self, seed: int):
        self.states = reference.exact_states()
        random.Random(seed).shuffle(self.states)

    def ops(self, pass_dir: Path) -> list[dict]:
        return [{"omega": s["omega"], "l": s["l"], "N": s["N"]} for s in self.states]

    def check(self, outputs, pass_dir: Path) -> list[list[str]]:
        out = []
        for got, st in zip(outputs, self.states):
            if got is None:
                out.append([])
                continue
            eta, nodes = min(got, key=lambda e: abs(e[0] - st["eta"]))
            problems = []
            if _rel(eta, st["eta"]) > EXACT_ETA_RTOL:
                problems.append(f"eta {eta!r} vs exact {st['eta']!r} ({st})")
            if nodes != st["nodes"]:
                problems.append(f"{nodes} nodes vs exact {st['nodes']} ({st})")
            out.append(problems)
        return out


WORKLOADS = {w.name: w for w in (PublishedReport, HighNRoots, ExactStates)}
