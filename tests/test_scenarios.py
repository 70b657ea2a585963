import numpy as np
import pytest

from persuade.equilibria import PreconditionError, full_revelation_profile
from persuade.game import CapError, Lexicographic, sample_playthrough
from persuade.scenarios import (
    SyntheticSpec,
    product_ads_instance,
    quality_ads_instance,
    ride_hailing_instance,
    synthetic_instance,
)

LEX = Lexicographic()


class TestSynthetic:
    def test_prior_strictly_positive_and_normalized(self):
        for seed in range(20):
            g = synthetic_instance(SyntheticSpec(2, 4, 3, 5, seed))
            assert np.all(g.prior > 0)
            assert abs(g.prior.sum() - 1.0) <= 1e-12

    def test_utility_sample_variance_near_100(self):
        entries = []
        seed = 0
        while len(entries) < 10_000:
            g = synthetic_instance(SyntheticSpec(2, 10, 2, 10, seed))
            entries.extend(g.receiver_utility.ravel().tolist())
            for u in g.sender_utilities:
                entries.extend(u.ravel().tolist())
            seed += 1
        var = float(np.var(np.asarray(entries[:10_000]), ddof=1))
        assert 90.0 <= var <= 110.0

    def test_same_seed_same_instance(self):
        a = synthetic_instance(SyntheticSpec(2, 2, 2, 2, 7))
        b = synthetic_instance(SyntheticSpec(2, 2, 2, 2, 7))
        assert np.array_equal(a.prior, b.prior)
        assert np.array_equal(a.receiver_utility, b.receiver_utility)
        for x, y in zip(a.sender_utilities, b.sender_utilities):
            assert np.array_equal(x, y)

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            SyntheticSpec(2, 1, 2, 2, 0)


class TestQualityAds:
    def test_paper_scale_dimensions(self):
        g = quality_ads_instance(7, seed=1)
        assert g.states == 128 and g.actions == 8 and g.n_senders == 7

    def test_all_low_quality_means_no_purchase(self):
        g = quality_ads_instance(3, seed=2, shock_std=0.0)
        # state with every quality -5 is the first in lexicographic order
        row = g.receiver_utility[0]
        assert np.argmax(row) == 3          # the no-purchase action
        assert np.all(row[:3] == -5.0)

    def test_single_high_quality_state_has_unique_optimum(self):
        g = quality_ads_instance(3, seed=3, shock_std=0.0)
        qualities = np.asarray(g.meta["qualities"])
        for w in range(g.states):
            high = np.nonzero(qualities[w] == 5.0)[0]
            if high.size == 1:
                row = g.receiver_utility[w]
                best = np.nonzero(row >= row.max() - 1e-9)[0]
                assert best.tolist() == [int(high[0])]

    def test_two_high_quality_firms_tie_and_reject_revelation(self):
        g = quality_ads_instance(2, seed=4, shock_std=0.0)
        with pytest.raises(PreconditionError):
            full_revelation_profile(g)

    def test_shocked_instance_reveals_with_enough_signals(self):
        # shocks break the quality ties; 4 signals cover the three used actions
        g = quality_ads_instance(2, seed=0, signals=4, shock_std=1.0)
        profile, cert = full_revelation_profile(g)
        assert profile.shape == (2, 4, 4)
        assert len(cert.assignment) == len(set(cert.optimal_actions.tolist()))

    def test_state_cap(self):
        with pytest.raises(CapError):
            quality_ads_instance(20, seed=0)


class TestProductAds:
    def test_two_firm_defaults(self):
        g = product_ads_instance(2, seed=1)
        assert g.n_senders == 2 and g.states == 9 and g.actions == 3

    def test_ranges_over_many_seeds(self):
        for seed in range(1000):
            g = product_ads_instance(2, seed=seed, quality_levels=2)
            prices = g.meta["prices"]
            assert all(1 <= p <= 10 for p in prices)
            for alphabet in g.meta["alphabets"]:
                assert all(-8 <= q <= 12 for q in alphabet)
                assert len(set(alphabet)) == len(alphabet)

    def test_hopeless_firm_never_bought_under_full_information(self):
        for seed in range(200):
            g = product_ads_instance(2, seed=seed, shock_std=0.5)
            shocks = np.asarray(g.meta["shocks"])
            prices = np.asarray(g.meta["prices"], dtype=float)
            alphabets = [np.asarray(a, dtype=float) for a in g.meta["alphabets"]]
            for i in range(2):
                if alphabets[i].max() - prices[i] + shocks[i] < 0:
                    # every point-mass belief puts the no-buy action above firm i
                    best = g.receiver_utility.argmax(axis=1)
                    assert not np.any(best == i)

    def test_firm_payoffs(self):
        g = product_ads_instance(2, seed=9)
        prices = g.meta["prices"]
        assert np.all(g.sender_utilities[0][:, 0] == prices[0])
        assert np.all(g.sender_utilities[0][:, 1:] == -1.0)


class TestRideHailing:
    def test_paper_scale_dimensions(self):
        g = ride_hailing_instance(4, 4, seed=1)
        assert g.actions == 9 and g.signals == 5 and g.n_senders == 2
        assert g.states == 2**8

    def test_no_pickup_when_every_cost_exceeds_price(self):
        g = ride_hailing_instance(2, 2, seed=67)   # all max costs exceed their prices
        prices = np.asarray(g.meta["prices"])
        tables = [np.asarray(t) for t in g.meta["cost_tables"]]
        assert all(t.max() > p for p, t in zip(prices, tables))
        worst_state = g.states - 1                 # all orders at max cost level
        row = g.receiver_utility[worst_state]
        assert row.argmax() == g.actions - 1

    def test_platform_earns_nothing_on_rival_pickups(self, rng):
        g = ride_hailing_instance(2, 2, seed=3)
        pol = rng.dirichlet(np.ones(g.signals), size=(2, g.states))
        for k in range(1000):
            pt = sample_playthrough(g, pol, LEX, rng=np.random.default_rng(k))
            if 2 <= pt.action < 4:                  # rival's orders
                assert pt.sender_payoffs[0] == 0.0
            if pt.action < 2:
                assert pt.sender_payoffs[1] == 0.0

    def test_margin_paid_only_on_own_pickup(self):
        g = ride_hailing_instance(2, 3, seed=11)
        prices = np.asarray(g.meta["prices"])
        payments = np.asarray(g.meta["payments"])
        margins = prices - payments
        u1, u2 = g.sender_utilities
        assert np.allclose(u1[:, :2], margins[:2])
        assert np.all(u1[:, 2:] == 0.0)
        assert np.allclose(u2[:, 2:5], margins[2:])

    def test_payment_based_switch(self):
        a = ride_hailing_instance(2, 2, seed=5, payment_based=False)
        b = ride_hailing_instance(2, 2, seed=5, payment_based=True)
        prices = np.asarray(a.meta["prices"])
        payments = np.asarray(a.meta["payments"])
        assert np.allclose(a.receiver_utility[:, :4] - b.receiver_utility[:, :4],
                           (prices - payments)[None, :])


class TestGeneratorContracts:
    @pytest.mark.parametrize("make", [quality_ads_instance, product_ads_instance])
    def test_shock_std_is_finite_and_non_negative(self, make):
        for bad in (np.nan, -2.0, np.inf, -np.inf):
            with pytest.raises(ValueError, match="shock_std"):
                make(2, seed=1, shock_std=bad)
        assert make(2, seed=1, shock_std=0.0).meta["shocks"] == [0.0, 0.0]

    def test_all_generators_yield_valid_instances(self):
        games = [
            synthetic_instance(SyntheticSpec(2, 3, 3, 3, 1)),
            quality_ads_instance(3, seed=1),
            product_ads_instance(2, seed=1),
            ride_hailing_instance(2, 2, seed=1),
        ]
        for g in games:
            assert abs(g.prior.sum() - 1.0) <= 1e-12
            assert g.receiver_utility.shape == (g.states, g.actions)
            assert len(g.sender_utilities) == g.n_senders
