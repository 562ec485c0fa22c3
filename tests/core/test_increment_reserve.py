"""Unit tests for price-increment policies and congestion-weighted reserve pricing."""

import math

import numpy as np
import pytest

from repro.core.increment import (
    AdditiveIncrement,
    CappedIncrement,
    NormalizedIncrement,
    ProportionalIncrement,
    default_increment,
)
from repro.core.reserve import (
    PAPER_PHI_1,
    PAPER_PHI_2,
    PAPER_PHI_3,
    ExponentialWeight,
    FlatWeight,
    LinearWeight,
    ReciprocalWeight,
    ReservePricer,
    check_weighting_properties,
    sweep_curve,
)


class TestAdditiveIncrement:
    def test_proportional_to_positive_excess(self):
        policy = AdditiveIncrement(alpha=0.5)
        z = np.array([10.0, -5.0, 0.0])
        step = policy.increment(z, np.ones(3))
        np.testing.assert_allclose(step, [5.0, 0.0, 0.0])

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            AdditiveIncrement(alpha=0.0)


class TestCappedIncrement:
    def test_fractional_cap_limits_step(self):
        policy = CappedIncrement(alpha=1.0, cap_fraction=0.1)
        prices = np.array([100.0, 100.0])
        z = np.array([1000.0, 1.0])
        step = policy.increment(z, prices)
        assert step[0] == pytest.approx(10.0)  # capped at 10% of price
        assert step[1] == pytest.approx(1.0)  # below cap, alpha*z

    def test_absolute_cap_variant(self):
        policy = CappedIncrement(alpha=1.0, cap_fraction=None, absolute_cap=2.0)
        step = policy.increment(np.array([1000.0]), np.array([5.0]))
        assert step[0] == pytest.approx(2.0)

    def test_requires_some_cap(self):
        with pytest.raises(ValueError):
            CappedIncrement(alpha=1.0, cap_fraction=None, absolute_cap=None)

    def test_zero_price_pools_can_still_move(self):
        policy = CappedIncrement(alpha=1.0, cap_fraction=0.1)
        step = policy.increment(np.array([10.0]), np.array([0.0]))
        assert step[0] > 0.0


class TestNormalizedIncrement:
    def test_cheaper_resources_move_less(self):
        base = np.array([10.0, 0.05])  # CPU vs disk unit costs
        policy = NormalizedIncrement(base_prices=base, alpha=1.0, cap_fraction=10.0)
        z = np.array([1.0, 1.0])
        step = policy.increment(z, np.array([10.0, 0.05]))
        assert step[0] > step[1]
        # the ratio of steps matches the ratio of base prices
        assert step[0] / step[1] == pytest.approx(base[0] / base[1])

    def test_rejects_negative_base_prices(self):
        with pytest.raises(ValueError):
            NormalizedIncrement(base_prices=np.array([-1.0]), alpha=1.0)


class TestProportionalIncrement:
    def test_step_relative_to_price_and_capacity(self):
        policy = ProportionalIncrement(scale=np.array([100.0, 100.0]), alpha=1.0, cap_fraction=0.5)
        prices = np.array([10.0, 10.0])
        z = np.array([10.0, 200.0])  # 10% and 200% of capacity
        step = policy.increment(z, prices)
        assert step[0] == pytest.approx(1.0)  # 10% of price
        assert step[1] == pytest.approx(5.0)  # capped at 50% of price

    def test_strictly_positive_movement_on_overdemanded_pools(self):
        policy = ProportionalIncrement(scale=np.array([1e12]), alpha=1e-9, cap_fraction=0.1)
        step = policy.increment(np.array([1.0]), np.array([1.0]))
        assert step[0] > 0.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ProportionalIncrement(scale=np.array([0.0]), alpha=1.0)

    def test_default_increment_handles_zero_capacity(self):
        policy = default_increment(np.array([0.0, 10.0]))
        step = policy.increment(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert np.all(np.isfinite(step)) and np.all(step >= 0)

    def test_describe_strings(self):
        for policy in (
            AdditiveIncrement(),
            CappedIncrement(),
            NormalizedIncrement(base_prices=np.array([1.0])),
            default_increment(np.array([1.0])),
        ):
            assert isinstance(policy.describe(), str) and policy.describe()


class TestWeightingFunctions:
    def test_paper_phi1_matches_formula(self):
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert PAPER_PHI_1(x) == pytest.approx(math.exp(2 * (x - 0.5)))

    def test_paper_phi2_matches_formula(self):
        for x in (0.0, 0.5, 1.0):
            assert PAPER_PHI_2(x) == pytest.approx(math.exp(x - 0.5))

    def test_paper_phi3_matches_formula(self):
        for x in (0.0, 0.5, 1.0):
            assert PAPER_PHI_3(x) == pytest.approx(1.0 / (1.5 - x))

    def test_all_paper_curves_equal_one_at_half_utilization(self):
        for phi in (PAPER_PHI_1, PAPER_PHI_2, PAPER_PHI_3):
            assert phi(0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("phi", [PAPER_PHI_1, PAPER_PHI_2, PAPER_PHI_3], ids=["phi1", "phi2", "phi3"])
    def test_paper_curves_satisfy_all_five_properties(self, phi):
        props = check_weighting_properties(phi)
        assert all(props.values()), props

    def test_linear_weight_fails_congestion_steepness(self):
        props = check_weighting_properties(LinearWeight(low=0.5, high=1.5))
        assert props["monotonically_increasing"]
        # equal gaps, so it passes only with >= comparison; verify it is not *steeper*
        phi = LinearWeight(low=0.5, high=1.5)
        assert (phi(0.99) - phi(0.80)) <= (phi(0.40) - phi(0.15)) + 1e-9

    def test_flat_weight_is_constant(self):
        phi = FlatWeight(value=1.0)
        assert phi(0.0) == phi(0.5) == phi(1.0) == 1.0

    def test_out_of_range_utilization_rejected(self):
        with pytest.raises(ValueError):
            PAPER_PHI_1(1.2)
        with pytest.raises(ValueError):
            PAPER_PHI_3(-0.1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExponentialWeight(steepness=0.0)
        with pytest.raises(ValueError):
            ReciprocalWeight(ceiling=1.0)
        with pytest.raises(ValueError):
            LinearWeight(low=2.0, high=1.0)
        with pytest.raises(ValueError):
            FlatWeight(value=0.0)

    def test_sweep_curve_shape(self):
        xs, ys = sweep_curve(PAPER_PHI_1, points=51)
        assert xs.shape == ys.shape == (51,)
        assert xs[0] == 0.0 and xs[-1] == 1.0


class TestReservePricer:
    def test_congested_pool_priced_above_cost(self, pool_index):
        pricer = ReservePricer(weighting=PAPER_PHI_1)
        prices = pricer.reserve_price_map(pool_index)
        # alpha has utilization 0.9 -> multiplier > 1; beta 0.3 -> < 1
        assert prices["alpha/cpu"] > pool_index.pool("alpha/cpu").unit_cost
        assert prices["beta/cpu"] < pool_index.pool("beta/cpu").unit_cost

    def test_reserve_price_formula(self, pool_index):
        pricer = ReservePricer(weighting=PAPER_PHI_1)
        prices = pricer.reserve_prices(pool_index)
        for i, pool in enumerate(pool_index):
            assert prices[i] == pytest.approx(PAPER_PHI_1(pool.utilization) * pool.unit_cost)

    def test_per_type_weighting_mapping(self, pool_index):
        from repro.cluster.resources import ResourceType

        pricer = ReservePricer(
            weighting={
                ResourceType.CPU: PAPER_PHI_1,
                ResourceType.RAM: PAPER_PHI_2,
                ResourceType.DISK: PAPER_PHI_3,
            }
        )
        prices = pricer.reserve_price_map(pool_index)
        pool = pool_index.pool("alpha/ram")
        assert prices["alpha/ram"] == pytest.approx(PAPER_PHI_2(pool.utilization) * pool.unit_cost)

    def test_missing_type_in_mapping_raises(self, pool_index):
        from repro.cluster.resources import ResourceType

        pricer = ReservePricer(weighting={ResourceType.CPU: PAPER_PHI_1})
        with pytest.raises(KeyError):
            pricer.reserve_prices(pool_index)

    def test_percentile_mode_uses_fleet_relative_ranks(self, three_cluster_index):
        fraction_pricer = ReservePricer(weighting=PAPER_PHI_1, use_percentiles=False)
        percentile_pricer = ReservePricer(weighting=PAPER_PHI_1, use_percentiles=True)
        frac_inputs = fraction_pricer.utilization_inputs(three_cluster_index)
        pct_inputs = percentile_pricer.utilization_inputs(three_cluster_index)
        # percentiles of three distinct utilization levels are 0, 0.5, 1.0 per type
        assert set(np.round(np.unique(pct_inputs), 6)) == {0.0, 0.5, 1.0}
        assert not np.allclose(frac_inputs, pct_inputs)

    def test_flat_weighting_reproduces_fixed_prices(self, pool_index):
        pricer = ReservePricer(weighting=FlatWeight(1.0))
        np.testing.assert_allclose(pricer.reserve_prices(pool_index), pool_index.unit_costs())

    def test_multipliers_monotone_in_utilization(self, three_cluster_index):
        pricer = ReservePricer(weighting=PAPER_PHI_1)
        m = {p.name: v for p, v in zip(three_cluster_index, pricer.multipliers(three_cluster_index))}
        assert m["low/cpu"] < m["mid/cpu"] < m["high/cpu"]
