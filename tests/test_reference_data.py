import pytest

from heunqdot.reference_data import load_reference


def test_loads_and_caches():
    ref = load_reference()
    assert ref is load_reference()


def test_root_tables():
    ref = load_reference()
    assert ref.roots(0)[2] == (2.5198,)
    assert ref.roots(0)[4] == (2.47047, 14.1004)
    assert ref.roots(1)[5] == (8.3627, 21.6111)
    with pytest.raises(KeyError):
        ref.roots(2)


def test_asymptotic_flags():
    ref = load_reference()
    flagged = {(n, l) for l in (0, 1, 2) for n in (2, 3, 4, 5)
               if ref.asymptotic(n, l)}
    assert flagged == {(2, 0), (3, 0), (5, 0), (2, 1), (3, 1), (5, 1)}


def test_energies_table():
    ref = load_reference()
    rows = ref.energies()
    assert rows[2]["eta"] == 0.4725
    assert rows[4]["eps_prime"] == 0.8553
    assert rows[3]["eps_int"] == 0.250


def test_decimal_comma_entry_normalized():
    # stored with a period even though published with a comma
    assert load_reference().normalization(5, 1) == 0.00139954


def test_r_mean_values():
    ref = load_reference()
    assert ref.r_mean(2, 0) == 3.66754
    assert ref.r_mean_claimed_range() == (3.7, 18.7)


def test_immutable():
    ref = load_reference()
    with pytest.raises(TypeError):
        ref.raw["table1.n2.root1"] = 99.0
