"""Everything here is pure value computation; concurrent use must be safe."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from heunqdot.model import RadialProblem
from heunqdot.oracle import ShootingConfig, solve_eigen
from heunqdot.termination import solve_termination
from heunqdot.wavefunction import assemble_polynomial, moment, normalize


def _pipeline(args):
    n, l = args
    roots = solve_termination(n, l).rootset.roots
    return [(r.t_star, moment(normalize(assemble_polynomial(n, l, r.t_star)), 1))
            for r in roots]


def test_parallel_termination_matches_serial():
    jobs = [(n, l) for n in (2, 3, 4, 5) for l in (0, 1)]
    serial = list(map(_pipeline, jobs))
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(_pipeline, jobs))
    assert threaded == serial


def test_parallel_eigensolves_match_serial():
    problems = [RadialProblem(omega=w, l=l) for w in (0.25, 1.0) for l in (0, 1)]

    def solve(p):
        return solve_eigen(p, ShootingConfig(node_target=1),
                           coulomb_on=False).etas

    serial = [solve(p) for p in problems]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(solve, problems))
    for a, b in zip(serial, threaded):
        assert a == pytest.approx(b, rel=1e-12)

