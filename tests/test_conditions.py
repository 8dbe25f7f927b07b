"""Chain conditions, majorization sufficiency, and R monotonicity."""

import random
from fractions import Fraction as F

import pytest

from qturan import conditions
from qturan.conditions import (
    RtsDirection,
    chain_case,
    chain_condition_a,
    chain_condition_b,
    derive_cd,
    majorization_sufficiency,
    rts_monotonicity_probe,
    rts_value,
)
from qturan.qcore import QBase, elementary_symmetric
from qturan.scalar import DimensionError, DomainError, ex, fl

Q12 = QBase.exact(q=F(1, 2))


def exv(*vals):
    return tuple(ex(F(v)) for v in vals)


class TestDeriveCD:
    @pytest.mark.parametrize("a, b", [((), (F(1),)), ((F(1),), ())], ids=["a", "b"])
    def test_empty_vector_is_refused(self, a, b):
        with pytest.raises(DimensionError, match="must not be empty"):
            derive_cd(a, b, Q12)

    def test_zero_parameter(self):
        c, _ = derive_cd((F(0),), (F(1),), Q12)
        assert c[0].to_fraction() == 0

    def test_reference_values(self):
        c, d = derive_cd((F(1), F(2)), (F(1), F(1)), Q12)
        assert [v.to_fraction() for v in c] == [1, 3]
        assert [v.to_fraction() for v in d] == [1, 1]

    def test_nonnegative_with_equality_iff_zero(self):
        c, _ = derive_cd((F(0), F(1, 2), F(3)), (F(1),), Q12)
        assert c[0].is_zero()
        assert c[1].sign() > 0 and c[2].sign() > 0


class TestChainConditions:
    def test_three_over_two_vectors_case_a(self):
        c, d = derive_cd((F(1), F(1), F(1)), (F(2), F(2)), Q12)
        assert [v.to_fraction() for v in c] == [1, 1, 1]
        assert [v.to_fraction() for v in d] == [3, 3]
        assert chain_condition_a(c, d)

    def test_equal_vectors_boundary(self):
        c = exv(2, 5)
        assert chain_condition_a(c, c)
        assert chain_condition_b(c, c)

    def test_case_a_failure(self):
        assert not chain_condition_a(exv(10, 10), exv(1))

    def test_two_over_two_vectors_case_b(self):
        c, d = derive_cd((F(2), F(3)), (F(1), F(2)), Q12)
        assert [v.to_fraction() for v in c] == [3, 7]
        assert [v.to_fraction() for v in d] == [1, 3]
        assert chain_condition_b(c, d)

    def test_swapped_vectors_flip_cases(self):
        c, d = derive_cd((F(1), F(2)), (F(2), F(3)), Q12)
        assert not chain_condition_b(c, d)
        assert chain_condition_a(c, d)

    def test_dimension_guards(self):
        with pytest.raises(DimensionError):
            chain_condition_a(exv(1), exv(2, 3))
        with pytest.raises(DimensionError):
            chain_condition_b(exv(1, 2), exv(3))

    def test_cross_multiplication_matches_division(self):
        rng = random.Random(31)
        for _ in range(120):
            s = rng.randint(1, 4)
            t = s + rng.randint(0, 1)
            c = [ex(F(rng.randint(1, 12))) for _ in range(t)]
            d = [ex(F(rng.randint(1, 12))) for _ in range(s)]
            got = chain_condition_a(c, d)
            ec = elementary_symmetric(c)
            ed = elementary_symmetric(d)
            ratios = [ec[t - j] / ed[s - j] for j in range(s + 1)]
            by_division = all(x <= y for x, y in zip(ratios, ratios[1:]))
            assert got == by_division


class TestChainCase:
    @pytest.mark.parametrize("a, b, case", [
        ((F(1), F(3)), (F(1), F(3)), "a+b"),
        ((F(1), F(1), F(1)), (F(2), F(2)), "a"),
        ((F(2), F(3)), (F(1), F(2)), "b"),
        ((F(1), F(3)), (F(2), F(2)), None),
    ])
    def test_four_outcomes_agree_with_majorization_flags(self, a, b, case):
        c, d = derive_cd(a, b, Q12)
        assert chain_case(c, d) == case
        verdict = majorization_sufficiency(c, d)
        assert verdict.applies_case_a == (case in ("a", "a+b"))
        assert verdict.applies_case_b == (case in ("b", "a+b"))

    def test_dimensional_hypotheses_are_part_of_the_case(self):
        # t = s + 2 fits neither chain; t = s + 1 fits only case (a)
        assert chain_case(exv(1, 1, 1), exv(1)) is None
        assert chain_case(exv(1, 2, 10), exv(2, 3)) == "a"

    def test_agrees_with_majorization_flags_on_random_suite(self):
        rng = random.Random(7)
        for _ in range(200):
            s = rng.randint(1, 3)
            t = max(1, s + rng.randint(-1, 1))
            c = [ex(F(rng.randint(1, 9))) for _ in range(t)]
            d = [ex(F(rng.randint(1, 9))) for _ in range(s)]
            case = chain_case(c, d)
            verdict = majorization_sufficiency(c, d)
            assert verdict.applies_case_a == (case in ("a", "a+b"))
            assert verdict.applies_case_b == (case in ("b", "a+b"))


class TestMajorizationSufficiency:
    def test_equality_witness(self):
        c = exv(1, 3)
        verdict = majorization_sufficiency(c, c)
        assert verdict.via_majorization
        assert verdict.applies_case_a and verdict.applies_case_b

    def test_no_witness_but_chain_b(self):
        c, d = derive_cd((F(2), F(3)), (F(1), F(2)), Q12)
        verdict = majorization_sufficiency(c, d)
        assert not verdict.via_majorization       # sufficiency, not necessity
        assert verdict.applies_case_b

    def test_subvector_witness_forces_chain_a(self):
        c = exv(1, 2, 10)
        d = exv(2, 3)
        verdict = majorization_sufficiency(c, d)
        assert verdict.via_majorization
        assert verdict.witness_subvector == (0, 1)
        assert verdict.applies_case_a

    def test_case_b_witness_is_supermajorized_by_c(self):
        # d' = (3) of d = (3, 7) lies below c = (5): chain (b) holds
        verdict = majorization_sufficiency(exv(5), exv(3, 7))
        assert verdict.via_majorization and verdict.witness_subvector == (0,)
        assert verdict.applies_case_b
        # c = (1) lies below every d': no witness, and no chain holds
        verdict = majorization_sufficiency(exv(1), exv(3, 7))
        assert not verdict.via_majorization
        assert chain_case(exv(1), exv(3, 7)) is None

    def test_witness_outside_the_chain_dimensions_asserts_nothing(self):
        # t = s + 2: a witness exists, but no chain applies to these sizes
        verdict = majorization_sufficiency(exv(1, 1, 1), exv(1))
        assert verdict.via_majorization
        assert not verdict.applies_case_a and not verdict.applies_case_b

    @pytest.mark.parametrize("a, b, case", [((F(1), F(2)), (F(0), F(1)), "b"),
                                            ((F(0), F(1)), (F(0), F(1)), "a+b")])
    def test_a_zero_entry_skips_the_witness_search_and_keeps_the_chain_cases(
            self, a, b, case, monkeypatch):
        # the lemma needs positive entries; a zero parameter gives c_k or d_k = 0
        def refused(*_):
            raise AssertionError("a witness was searched for")
        monkeypatch.setattr(conditions, "weak_supermajorizes", refused)
        c, d = derive_cd(a, b, Q12)
        verdict = majorization_sufficiency(c, d)
        assert (verdict.via_majorization, verdict.witness_subvector) == (False, None)
        assert verdict.applies_case_a == (case in ("a", "a+b"))
        assert verdict.applies_case_b == (case in ("b", "a+b"))
        assert chain_case(c, d) == case

    def test_witness_implies_chain_on_random_suite(self):
        # witness found implies the chain holds: no counterexample in 500 draws
        rng = random.Random(101)
        checked = 0
        for _ in range(500):
            s = rng.randint(1, 3)
            t = s + rng.randint(0, 1)
            c = [ex(F(rng.randint(1, 15))) for _ in range(t)]
            d = [ex(F(rng.randint(1, 15))) for _ in range(s)]
            verdict = majorization_sufficiency(c, d)   # raises on violation
            if verdict.via_majorization:
                checked += 1
                assert verdict.applies_case_a or verdict.applies_case_b
        assert checked > 20


class TestRtsProbe:
    GRID = [ex(F(k, 10)) for k in (1, 3, 7, 12, 20, 35, 60, 100)]

    def test_constant(self):
        c = exv(1, 3)
        assert rts_monotonicity_probe(c, c, self.GRID) == RtsDirection.CONSTANT

    def test_float_constant_within_rounding_noise(self):
        # d is c reversed, so R = 1; its float rounding noise takes both signs,
        # which without the tolerance would read as a non-monotone R under
        # the chain conditions that hold here
        a = (F(1, 2), F(1), F(3, 2))
        c, d = derive_cd(a, tuple(reversed(a)), QBase.floating(F(1, 3), 30))
        grid = [fl(F(k, 7), 30) for k in range(1, 40)]
        steps = [(rts_value(c, d, y1) - rts_value(c, d, y0)).sign()
                 for y0, y1 in zip(grid, grid[1:])]
        assert 1 in steps and -1 in steps
        assert rts_monotonicity_probe(c, d, grid) == RtsDirection.CONSTANT

    def test_case_a_vectors_increasing(self):
        c, d = derive_cd((F(1), F(1), F(1)), (F(2), F(2)), Q12)
        assert rts_monotonicity_probe(c, d, self.GRID) == RtsDirection.INCREASING

    def test_case_b_vectors_decreasing(self):
        c, d = derive_cd((F(2), F(3)), (F(1), F(2)), Q12)
        assert rts_monotonicity_probe(c, d, self.GRID) == RtsDirection.DECREASING

    def test_decreasing_grid_is_refused(self):
        # read right to left, the decreasing R of chain (b) would look increasing
        c, d = derive_cd((F(2), F(3)), (F(1), F(2)), Q12)
        with pytest.raises(DomainError, match="strictly increasing grid of positive points"):
            rts_monotonicity_probe(c, d, self.GRID[::-1])

    @pytest.mark.parametrize("grid", [[ex(-1), ex(1)], [ex(0), ex(1)], [ex(1), ex(1), ex(2)]],
                             ids=["pole", "zero", "repeat"])
    def test_grid_off_the_positive_axis_or_repeated_is_refused(self, grid):
        # d = (1, 3) here, so y = -1 is a pole of R
        c, d = derive_cd((F(2), F(3)), (F(1), F(2)), Q12)
        with pytest.raises(DomainError):
            rts_monotonicity_probe(c, d, grid)

    def test_chain_implies_direction_on_random_suite(self):
        rng = random.Random(7)
        grid = [ex(F(num, 8)) for num in
                sorted(rng.sample(range(1, 4000), 50))]
        for _ in range(500):
            s = rng.randint(1, 3)
            t = s + rng.randint(0, 1)
            c = [ex(F(rng.randint(1, 12))) for _ in range(t)]
            d = [ex(F(rng.randint(1, 12))) for _ in range(s)]
            # probe asserts internally that a holding chain forces direction
            direction = rts_monotonicity_probe(c, d, grid)
            if t >= s and chain_condition_a(c, d):
                assert direction in (RtsDirection.INCREASING,
                                     RtsDirection.CONSTANT)
            if t <= s and chain_condition_b(c, d):
                assert direction in (RtsDirection.DECREASING,
                                     RtsDirection.CONSTANT)

    def test_rts_value(self):
        val = rts_value(exv(1, 2), exv(3), ex(F(1)))
        assert val.to_fraction() == F(2 * 3, 4)
