import numpy as np
import pytest

from tsbreak.lags import RULES, kpss_short, newey_west, schwert4, schwert12


class TestKnownValues:
    def test_length_241(self):
        assert schwert4(241) == 4
        assert schwert12(241) == 14
        assert newey_west(241) == 4
        assert kpss_short(241) == 3

    def test_length_100(self):
        assert schwert4(100) == 4
        assert schwert12(100) == 12
        assert newey_west(100) == 4
        assert kpss_short(100) == 2

    def test_length_25(self):
        assert schwert4(25) == 2
        assert schwert12(25) == 8
        assert newey_west(25) == 2
        assert kpss_short(25) == 1

    def test_tiny_lengths(self):
        assert schwert4(1) == 1
        assert newey_west(1) == 1
        assert kpss_short(1) == 0


def test_floor_guard_on_exact_powers():
    # 4 * (1600/100)^(1/4) is exactly 8; floating-point dust below 8.0
    # must not floor down to 7.
    assert schwert4(1600) == 8
    assert schwert12(10000) == 37
    assert kpss_short(7605) == 20  # 3*sqrt(7605)/13 lands close to an integer


def test_ordering_property_holds_up_to_500():
    for T in range(1, 501):
        assert kpss_short(T) <= newey_west(T) <= schwert12(T)
        assert abs(schwert4(T) - newey_west(T)) <= 1


@pytest.mark.parametrize("rule", list(RULES.values()))
@pytest.mark.parametrize("bad", [0, -3, 2.5, "ten", True, np.float64(241.0)])
def test_rejects_non_positive_lengths(rule, bad):
    with pytest.raises(ValueError):
        rule(bad)


@pytest.mark.parametrize("T", [np.int64(241), np.int32(241), np.uint16(241)])
def test_accepts_numpy_integers(T):
    assert [rule(T) for rule in RULES.values()] == [4, 14, 4, 3]
    assert all(type(rule(T)) is int for rule in RULES.values())


def test_rules_registry_names():
    assert set(RULES) == {"schwert4", "schwert12", "newey_west", "kpss_short"}
