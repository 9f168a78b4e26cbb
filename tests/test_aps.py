import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ap_profile
from uptail import aps
from uptail.aps import (
    ApModel,
    IntegerSet,
    ap_mean,
    conditional_expectation_ap,
    count_aps,
    extremal_ap_count,
    progression_masks,
)
from uptail.models import row_masks

from conftest import full_set


def test_count_initial_five():
    assert count_aps(full_set(5), 3) == 4


def test_count_powers_of_two():
    assert count_aps(IntegerSet.from_elements([1, 2, 4, 8]), 3) == 0


def test_count_empty():
    for k in (2, 3, 4):
        assert count_aps(IntegerSet(0), k) == 0


def test_count_ignores_elements_past_the_universe():
    # {1, 2, 3} is the one progression inside {1, ..., 5}
    assert count_aps(IntegerSet.from_elements([1, 2, 3, 9]), 3, universe=5) == 1


def test_extremal_values():
    assert extremal_ap_count(5, 3) == 4
    assert extremal_ap_count(8, 4) == 7
    for m in range(0, 40):
        assert extremal_ap_count(m, 2) == m * (m - 1) // 2


def test_extremal_matches_floor_sum():
    for k in (2, 3, 4, 5):
        for m in range(0, 60):
            assert extremal_ap_count(m, k) == sum((i - 1) // (k - 1) for i in range(1, m + 1))


def test_extremal_matches_direct_count():
    for k in (3, 4):
        for m in range(0, 14):
            assert extremal_ap_count(m, k) == count_aps(full_set(m), k, universe=max(m, 1))


def test_approximation_band():
    # quadratic approximation within k^2; the linear coefficient is -1/2
    # (the floor sum equals m^2/(2(k-1)) - m/2 up to a O(k) wobble)
    points = list(range(0, 200)) + [10 ** 3, 5000, 10 ** 4]
    for k in (3, 4, 5, 6):
        for m in points:
            approx = m * m / (2 * (k - 1)) - m / 2
            assert abs(extremal_ap_count(m, k) - approx) <= k * k


@given(st.integers(min_value=0, max_value=2 ** 14 - 1), st.integers(3, 4))
@settings(max_examples=300, deadline=None)
def test_extremal_inequality_random(mask, k):
    subset = IntegerSet(mask)
    assert count_aps(subset, k, universe=14) <= extremal_ap_count(len(subset), k)


class TestProfile:
    def setup_method(self):
        self.model = ApModel(5, 3, Fraction(1, 2))

    def test_empty(self):
        assert ap_profile(self.model, IntegerSet(0)).by_overlap == (4, 0, 0, 0)

    def test_initial_segment(self):
        profile = ap_profile(self.model, IntegerSet.from_elements([1, 2, 3]))
        assert profile.by_overlap == (0, 1, 2, 1)
        assert profile.by_overlap[3] == count_aps(IntegerSet.from_elements([1, 2, 3]), 3)

    def test_per_element(self):
        profile = ap_profile(self.model, IntegerSet.from_elements([1, 2, 3, 5]))
        assert profile.per_element[3] == 2

    def test_overlap_total(self):
        for mask in range(32):
            profile = ap_profile(self.model, IntegerSet(mask))
            assert sum(profile.by_overlap) == extremal_ap_count(5, 3)

    def test_per_element_sum_identity(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(3, 12)
            k = rng.randint(2, 4)
            model = ApModel(n, k, Fraction(1, 3))
            subset = IntegerSet(rng.getrandbits(n))
            profile = ap_profile(model, subset)
            total = sum(profile.per_element[i] for i in subset.elements())
            assert total == k * count_aps(subset, k, universe=n)


class TestStridedOverlaps:
    """The strided a_0..a_k against the progression-table oracle."""

    def test_every_subset_small(self):
        cases = 0
        for n in range(13):
            for k in (2, 3, 4):
                model = ApModel(n, k, Fraction(1, 3))
                for mask in range(1 << n):
                    subset = IntegerSet(mask)
                    assert aps._overlap_counts(n, k, subset.mask) == \
                        list(ap_profile(model, subset).by_overlap)
                    cases += 1
        assert cases == 3 * (2 ** 13 - 1)

    def test_seeded_subsets(self):
        rng = random.Random(11)
        for n in range(41):
            for k in (2, 3, 4, 5):
                model = ApModel(n, k, Fraction(1, 3))
                for _ in range(10):
                    subset = IntegerSet(rng.getrandbits(n) if n else 0)
                    assert aps._overlap_counts(n, k, subset.mask) == \
                        list(ap_profile(model, subset).by_overlap)

    def test_interval_of_a_thousand(self):
        model = ApModel(1000, 3, Fraction(1, 10))
        interval = IntegerSet.from_elements(range(1, 34))
        assert conditional_expectation_ap(model, interval) == Fraction(673319, 1000)

    def test_element_past_n(self):
        model = ApModel(5, 3, Fraction(1, 2))
        with pytest.raises(ValueError, match="elements of 1..5"):
            conditional_expectation_ap(model, IntegerSet.from_elements([1, 6]))


class TestConditionalExpectation:
    def setup_method(self):
        self.model = ApModel(5, 3, Fraction(1, 2))

    def test_empty(self):
        assert conditional_expectation_ap(self.model, IntegerSet(0)) == \
            extremal_ap_count(5, 3) * Fraction(1, 8)

    def test_initial_segment(self):
        value = conditional_expectation_ap(self.model, IntegerSet.from_elements([1, 2, 3]))
        assert value == Fraction(9, 4)

    def test_full(self):
        assert conditional_expectation_ap(self.model, full_set(5)) == 4

    def test_mean(self):
        assert ap_mean(self.model) == Fraction(1, 2)

    @given(st.integers(min_value=0, max_value=2 ** 10 - 1),
           st.integers(min_value=0, max_value=2 ** 10 - 1))
    @settings(max_examples=120, deadline=None)
    def test_conditioning_monotonicity(self, small, extra):
        model = ApModel(10, 3, Fraction(1, 3))
        lo = conditional_expectation_ap(model, IntegerSet(small))
        hi = conditional_expectation_ap(model, IntegerSet(small | extra))
        assert lo <= hi


def test_progression_masks_are_supports():
    masks = row_masks(progression_masks(5, 3))
    assert len(masks) == 4
    supports = {tuple(sorted(i + 1 for i in range(5) if m >> i & 1)) for m in masks}
    assert supports == {(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 3, 5)}


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ApModel(5, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        ApModel(5, 3, Fraction(3, 2))
    with pytest.raises(ValueError):
        count_aps(IntegerSet(0), 1)
