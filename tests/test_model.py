import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heunqdot.model import (
    SPEED_OF_LIGHT,
    RadialProblem,
    effective_potential_term,
    map_magnetic,
)
from heunqdot.oracle import ShootingConfig


def test_rejects_bad_omega():
    with pytest.raises(ValueError):
        RadialProblem(omega=0.0, l=0)
    with pytest.raises(ValueError):
        RadialProblem(omega=-1.0, l=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            RadialProblem(omega=bad, l=0)


@pytest.mark.parametrize("l", [2.0, np.int64(2)], ids=["float", "int64"])
def test_l_is_kept_as_an_int(l):
    """An integral l of another type is stored as the int it equals."""
    problem = RadialProblem(omega=1.0, l=l)
    assert problem.l == 2 and type(problem.l) is int


# the records that check their values, each with valid values for its fields
_CHECKED_RECORDS = {
    RadialProblem: {"omega": 0.25, "l": 1},
    ShootingConfig: {"node_target": 6},
}


@pytest.mark.parametrize("record", _CHECKED_RECORDS, ids=lambda r: r.__name__)
def test_checked_record_by_position_keyword_and_pickle(record):
    """A checked record is the same built by position or by keyword, and
    unpickling rebuilds it through its checks."""
    fields = _CHECKED_RECORDS[record]
    by_position = record(*fields.values())
    assert by_position == record(**fields)
    assert {name: getattr(by_position, name) for name in fields} == fields
    again = pickle.loads(pickle.dumps(by_position))
    assert type(again) is record and again == by_position
    # a tuple that skipped the checks does not survive the round trip
    unchecked = tuple.__new__(record, (-1,) * len(record._fields))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(unchecked))


class TestMagneticMapping:
    """map_magnetic(omega_0, B, m) returns RadialProblem(w/2, |m|) and the
    shift m*omega_c/4, with omega_c = B/c and the dressed frequency
    w = sqrt(omega_0^2 + (omega_c/2)^2)."""

    def test_zero_field_is_identity(self):
        problem, shift = map_magnetic(0.1, 0.0, 0)
        assert problem.omega == pytest.approx(0.05)
        assert problem.l == 0
        assert shift == 0.0
        assert 2 * problem.omega == 0.1  # w == omega_0

    def test_pure_field(self):
        problem, _ = map_magnetic(0.0, 2.0 * SPEED_OF_LIGHT, 0)
        assert 2 * problem.omega == pytest.approx(1.0)
        assert problem.omega == pytest.approx(0.5)

    def test_mixed_case(self):
        problem, shift = map_magnetic(0.3, 0.8 * SPEED_OF_LIGHT, 1)
        assert 2 * problem.omega == pytest.approx(0.5)
        assert problem.omega == pytest.approx(0.25)
        assert shift == pytest.approx(0.2)

    def test_field_from_B(self):
        problem, _ = map_magnetic(0.0, 137.035999, 0)
        # w = omega_c/2 without confinement
        assert 4 * problem.omega == pytest.approx(1.0)

    def test_effective_frequency_dominates(self):
        problem, _ = map_magnetic(0.2, 10.0, 3)
        w = 2 * problem.omega
        assert w >= 0.2
        assert w >= 10.0 / SPEED_OF_LIGHT / 2

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValueError, match="degenerate problem"):
            map_magnetic(0.0, 0.0, 0)

    def test_negative_confinement_rejected(self):
        with pytest.raises(ValueError, match="omega_0 must be non-negative"):
            map_magnetic(-0.1, 1.0, 0)

    @given(st.integers(-4, 4))
    def test_sign_of_m_only_flips_shift(self, m):
        prob_p, shift_p = map_magnetic(0.2, 0.3 * SPEED_OF_LIGHT, m)
        prob_m, shift_m = map_magnetic(0.2, 0.3 * SPEED_OF_LIGHT, -m)
        assert prob_p == prob_m
        assert shift_p == -shift_m


@given(st.floats(0.01, 20.0), st.integers(-4, 4), st.floats(0.05, 5.0))
def test_potential_even_in_l(r, l, omega):
    assert effective_potential_term(r, omega, l) == \
        effective_potential_term(r, omega, -l)
