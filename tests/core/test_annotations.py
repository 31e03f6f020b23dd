"""Unit tests for weight maps and the Section 2.4.1 bit-counting rules."""

import pytest

from repro.core.annotations import (
    WeightMap,
    address_bits,
    array_access_bits,
    call_access_bits,
    left_sum,
    message_access_bits,
    scalar_access_bits,
)
from repro.errors import EstimationError


class TestWeightMap:
    def test_set_and_get(self):
        w = WeightMap()
        w.set("proc", 80.0)
        assert w["proc"] == 80.0

    def test_constructor_mapping(self):
        w = WeightMap({"proc": 80.0, "asic": 10.0})
        assert w["asic"] == 10.0
        assert len(w) == 2

    def test_missing_technology_raises(self):
        w = WeightMap({"proc": 1.0})
        with pytest.raises(EstimationError, match="asic"):
            w.get("asic")

    def test_missing_technology_error_names_known(self):
        w = WeightMap({"proc": 1.0})
        with pytest.raises(EstimationError, match="proc"):
            w.get("mem")

    def test_default_suppresses_error(self):
        assert WeightMap().get("anything", default=7.0) == 7.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightMap({"proc": -1.0})

    def test_contains_and_iter(self):
        w = WeightMap({"a": 1.0, "b": 2.0})
        assert "a" in w and "c" not in w
        assert sorted(w) == ["a", "b"]

    def test_equality_with_dict(self):
        assert WeightMap({"a": 1.0}) == {"a": 1.0}
        assert WeightMap({"a": 1.0}) != {"a": 2.0}

    def test_copy_is_independent(self):
        w = WeightMap({"a": 1.0})
        c = w.copy()
        c.set("a", 5.0)
        assert w["a"] == 1.0

    def test_merge_sum_scales(self):
        a = WeightMap({"proc": 10.0})
        b = WeightMap({"proc": 3.0, "asic": 2.0})
        a.merge_sum(b, scale=2.0)
        assert a["proc"] == 16.0
        assert a["asic"] == 4.0

    def test_zero_weight_allowed(self):
        w = WeightMap({"proc": 0.0})
        assert w["proc"] == 0.0

    def test_to_dict_round_trip(self):
        w = WeightMap({"a": 1.5})
        assert WeightMap(w.to_dict()) == w


class TestBitRules:
    def test_scalar_bits(self):
        assert scalar_access_bits(8) == 8

    def test_scalar_requires_positive(self):
        with pytest.raises(ValueError):
            scalar_access_bits(0)

    def test_address_bits_power_of_two(self):
        assert address_bits(128) == 7

    def test_address_bits_non_power(self):
        assert address_bits(100) == 7  # ceil(log2(100))

    def test_address_bits_single_element(self):
        assert address_bits(1) == 0

    def test_address_bits_rejects_zero(self):
        with pytest.raises(ValueError):
            address_bits(0)

    def test_array_access_matches_figure3(self):
        # Figure 3: 128-entry array of 8-bit values -> 7 + 8 = 15 bits
        assert array_access_bits(8, 128) == 15

    def test_call_bits_sum_parameters(self):
        assert call_access_bits([8, 16, 1]) == 25

    def test_call_bits_empty(self):
        assert call_access_bits([]) == 0

    def test_call_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            call_access_bits([8, -1])

    def test_message_bits(self):
        assert message_access_bits(32) == 32
        with pytest.raises(ValueError):
            message_access_bits(0)


class TestLeftSum:
    def test_adds_left_to_right_on_every_python(self):
        # compensated summation (builtin sum() of floats since 3.12)
        # gives 1.0 here
        assert left_sum([0.1] * 10) == 0.9999999999999999

    def test_starts_from_int_zero(self):
        assert type(left_sum([])) is int
        assert left_sum(iter([2, 3])) == 5

    def test_order_is_the_iteration_order(self):
        values = [1.0, 1e16, -1e16]
        assert left_sum(values) == 0.0  # 1.0 is lost in 1e16
        assert left_sum(reversed(values)) == 1.0
