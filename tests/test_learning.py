import numpy as np
import pytest

from persuade.equilibria import EPSILON_LOCAL
from persuade.game import Lexicographic, SenderFavoring, ex_ante_utilities, ex_ante_utilities_batch
from persuade.learning import (
    EgConfig,
    TrainConfig,
    UtilityDataset,
    UtilitySurrogate,
    extragradient,
    find_local_ne,
    make_surrogate_params,
    mse,
    sample_dataset,
    softmax_rows,
    split_dataset,
    train,
)
from persuade.learning import _ascent_direction
from persuade import neural
from persuade.neural import flatten_params
from persuade.reference import didactic_game, two_block_game, two_block_equilibrium_policies
from persuade.rng import substream

from conftest import reference_ex_ante, reference_train

LEX = Lexicographic()


class TestDataset:
    def test_rows_are_distributions(self):
        ds = sample_dataset(didactic_game(), 500, LEX, seed=1)
        assert np.allclose(ds.policies().sum(axis=3), 1.0, atol=1e-12)

    def test_labels_reproducible_from_game(self):
        g = didactic_game()
        for tie in (LEX, SenderFavoring()):
            ds = sample_dataset(g, 300, tie, seed=2)
            assert np.array_equal(ex_ante_utilities_batch(g, ds.policies(), tie), ds.utilities)
            single = np.array([ex_ante_utilities(g, p, tie)[0] for p in ds.policies()[:40]])
            assert np.array_equal(single, ds.utilities[:40])
            oracle = np.array([reference_ex_ante(g, p, tie)[0] for p in ds.policies()[:40]])
            assert np.allclose(oracle, ds.utilities[:40], atol=1e-12)

    def test_flat_dirichlet_mean(self):
        ds = sample_dataset(didactic_game(), 10_000, LEX, seed=3)
        entries = ds.policies()[:, :, :, 0].ravel()
        # Dirichlet(1,1) marginals are uniform on [0,1]: mean 1/2, var 1/12
        sigma = np.sqrt(1 / 12 / entries.size)
        assert abs(entries.mean() - 0.5) < 3 * sigma

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_dataset(didactic_game(), 0, LEX, seed=0)

    def test_split_partitions(self):
        ds = sample_dataset(didactic_game(), 1000, LEX, seed=4)
        tr, val = split_dataset(ds, 0.1, seed=4)
        assert len(tr) == 900 and len(val) == 100


class TestTrain:
    def test_constant_labels_fit_to_machine_noise(self, rng):
        g = didactic_game()
        ds = sample_dataset(g, 2000, LEX, seed=5)
        const = UtilityDataset(inputs=ds.inputs, utilities=np.full_like(ds.utilities, 0.7), seed=5, game=g)
        for arch in ("relu", "delu", "dnl"):
            params = make_surrogate_params(arch, 8, substream(6, "c"), hidden=(8, 8, 8),
                                           hyper_hidden=(6,), aux_hidden=(6,))
            params, _ = train(
                params, const, TrainConfig(epochs=30, batch_size=32, learning_rate=0.02, seed=6), sender=0
            )
            assert mse(params, const.inputs, const.utilities[:, [0]]) < 1e-6, arch

    def test_loss_history_smoothed_non_increasing(self):
        g = didactic_game()
        ds = sample_dataset(g, 4000, LEX, seed=7)
        params = make_surrogate_params("dnl", 8, substream(7, "init"), hidden=(16, 16, 16), hyper_hidden=(12,))
        _, losses = train(params, ds, TrainConfig(epochs=15, batch_size=128, seed=7), sender=1)
        smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smooth) <= 1e-3)

    def test_deterministic_given_seed(self):
        g = didactic_game()
        ds = sample_dataset(g, 500, LEX, seed=8)
        cfg = TrainConfig(epochs=2, batch_size=64, seed=9)
        p1 = make_surrogate_params("relu", 8, substream(9, "init"), hidden=(10,))
        p2 = make_surrogate_params("relu", 8, substream(9, "init"), hidden=(10,))
        from persuade.neural import flatten_params

        t1, l1 = train(p1, ds, cfg, sender=0)
        t2, l2 = train(p2, ds, cfg, sender=0)
        assert l1 == l2
        assert np.array_equal(flatten_params(t1), flatten_params(t2))

    def test_divergence_guard(self):
        g = didactic_game()
        ds = sample_dataset(g, 200, LEX, seed=10)
        big = UtilityDataset(inputs=ds.inputs, utilities=ds.utilities * 1e9, seed=10, game=g)
        params = make_surrogate_params("relu", 8, substream(10, "init"), hidden=(8,))
        with pytest.raises(RuntimeError, match="diverged"):
            train(params, big, TrainConfig(epochs=3, batch_size=64, learning_rate=10.0, seed=10), sender=0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan])
    def test_learning_rate_must_be_positive(self, rate):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError, match="learning rate"):
            EgConfig(learning_rate=rate)

    def test_empty_dataset_rejected(self):
        g = didactic_game()
        ds = sample_dataset(g, 10, LEX, seed=11)
        empty = UtilityDataset(inputs=ds.inputs[:0], utilities=ds.utilities[:0], seed=11, game=g)
        params = make_surrogate_params("relu", 8, substream(11, "init"), hidden=(8,))
        with pytest.raises(ValueError):
            train(params, empty, TrainConfig(seed=11), sender=0)


def _surrogate(arch, sender, seed):
    """A small net of each architecture; multi-output when `sender` is None."""
    out_dim = 1 if sender is not None else 2
    return make_surrogate_params(arch, 8, substream(seed, "init"), hidden=(8, 8, 8),
                                 hyper_hidden=(6,), aux_hidden=(6,), out_dim=out_dim)


class TestTrainMatchesReference:
    """`train` against the per-step unflatten/forward/backward/flatten loop."""

    @pytest.mark.parametrize("arch", ["relu", "delu", "dnl"])
    @pytest.mark.parametrize("sender", [1, None], ids=["scalar", "multi"])
    def test_bit_identical_params_and_losses(self, arch, sender):
        ds = sample_dataset(didactic_game(), 300, LEX, seed=13)
        cfg = TrainConfig(epochs=3, batch_size=64, learning_rate=0.02, seed=13)   # 300 = 4 * 64 + 44
        trained, losses = train(_surrogate(arch, sender, 13), ds, cfg, sender=sender)
        ref, ref_losses = reference_train(_surrogate(arch, sender, 13), ds, cfg, sender=sender)
        assert np.array_equal(flatten_params(trained), flatten_params(ref))
        assert losses == ref_losses
        assert len(losses) == cfg.epochs

    @pytest.mark.parametrize("arch, stacks", [("relu", 1), ("delu", 2), ("dnl", 2)])
    def test_one_forward_pass_per_step(self, arch, stacks, monkeypatch):
        calls = []
        orig = neural._stack_forward

        def counted(params, x, relu_last):
            calls.append(x.shape[0])
            return orig(params, x, relu_last)

        monkeypatch.setattr(neural, "_stack_forward", counted)
        ds = sample_dataset(didactic_game(), 100, LEX, seed=14)
        train(_surrogate(arch, 0, 14), ds, TrainConfig(epochs=2, batch_size=64, seed=14), sender=0)
        steps = 2 * 2                               # 2 epochs of a 64-row and a 36-row batch
        assert len(calls) == stacks * steps
        assert sorted(set(calls)) == [36, 64]

    @pytest.mark.parametrize("arch", ["relu", "delu", "dnl"])
    def test_caller_params_untouched(self, arch):
        ds = sample_dataset(didactic_game(), 200, LEX, seed=15)
        params = _surrogate(arch, 0, 15)
        before = flatten_params(params)
        trained, _ = train(params, ds, TrainConfig(epochs=2, batch_size=64, seed=15), sender=0)
        assert np.array_equal(flatten_params(params), before)
        assert not np.array_equal(flatten_params(trained), before)
        for a in neural.param_arrays(params):
            assert not any(np.shares_memory(a, b) for b in neural.param_arrays(trained))


class _Constant:
    def input_gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class _Bilinear:
    """f(p1, p2) = sign * (p1 - 1/2)(p2 - 1/2) over two 1-state binary policies."""

    def __init__(self, sign):
        self.sign = sign

    def input_gradient(self, x):
        g = np.zeros(4)
        g[0] = self.sign * (x[2] - 0.5)
        g[2] = self.sign * (x[0] - 0.5)
        return g


class TestExtragradient:
    def test_softmax_rows_are_policies(self, rng):
        logits = rng.normal(scale=8.0, size=(3, 4, 5))
        pol = softmax_rows(logits)
        assert np.allclose(pol.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(pol >= 0)

    def test_zero_gradient_is_fixed_point(self, rng):
        init = rng.normal(size=(2, 2, 2))
        pol = extragradient([_Constant(), _Constant()], init, EgConfig(steps=25, restarts=1, seed=0))
        assert np.allclose(pol, softmax_rows(init), atol=1e-15)

    def test_exact_ne_logits_returned_unchanged(self):
        # constant surrogates leave any start alone, so seeding with an exact
        # equilibrium's logits hands that equilibrium straight back
        g = two_block_game()
        prof = two_block_equilibrium_policies()
        logits = np.log(prof + 1e-12)
        pol = extragradient([_Constant(), _Constant()], logits, EgConfig(steps=10, restarts=1, seed=0))
        assert np.allclose(pol, prof, atol=1e-11)
        u = ex_ante_utilities(g, pol, SenderFavoring())[0]
        assert np.allclose(u, [0.3, 0.3], atol=1e-9)

    def test_saddle_contracts_where_simultaneous_ascent_does_not(self):
        surrogates = [_Bilinear(+1), _Bilinear(-1)]
        init = np.array([[[0.4, -0.4]], [[0.3, -0.3]]])
        d0 = float(np.linalg.norm(softmax_rows(init)[:, 0, 0] - 0.5))
        cfg = EgConfig(steps=200, learning_rate=0.3, restarts=1, seed=0)
        d_eg = float(np.linalg.norm(extragradient(surrogates, init, cfg)[:, 0, 0] - 0.5))
        logits = init.copy()
        for _ in range(cfg.steps):
            logits = logits + cfg.learning_rate * _ascent_direction(surrogates, logits)
        d_gda = float(np.linalg.norm(softmax_rows(logits)[:, 0, 0] - 0.5))
        assert d_eg < 0.95 * d0
        assert d_gda > 1.02 * d0

    def test_trajectory_deterministic(self, rng):
        g = didactic_game()
        ds = sample_dataset(g, 400, LEX, seed=12)
        params = make_surrogate_params("relu", 8, substream(12, "init"), hidden=(10,))
        params, _ = train(params, ds, TrainConfig(epochs=2, batch_size=64, seed=12), sender=0)
        surr = [UtilitySurrogate(params), UtilitySurrogate(params)]
        init = rng.normal(size=(2, 2, 2))
        cfg = EgConfig(steps=15, restarts=1, seed=0)
        assert np.array_equal(extragradient(surr, init, cfg), extragradient(surr, init, cfg))

    def test_nonfinite_gradient_aborts(self):
        class Broken:
            def input_gradient(self, x):
                return np.full_like(np.asarray(x, dtype=float), np.nan)

        with pytest.raises(RuntimeError):
            extragradient([Broken(), Broken()], np.zeros((2, 1, 2)), EgConfig(steps=1, restarts=1, seed=0))


class TestPipeline:
    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0])
    def test_eps_checked_before_training(self, monkeypatch, eps):
        import persuade.learning

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the eps was checked")

        monkeypatch.setattr(persuade.learning, "train", no_training)
        g = didactic_game()
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            find_local_ne(g, TrainConfig(epochs=1, seed=1), EgConfig(steps=1, restarts=1, seed=2), LEX,
                          dataset=sample_dataset(g, 50, LEX, 1), eps=eps, arch="relu", hidden=(4,))

    def test_reports_true_utilities_and_orders_by_welfare(self):
        g = didactic_game()
        res = find_local_ne(
            g,
            TrainConfig(epochs=4, batch_size=128, seed=21),
            EgConfig(steps=10, learning_rate=0.1, restarts=6, seed=22),
            LEX,
            dataset=sample_dataset(g, 1500, LEX, 21),
            eps=0.005,
            arch="relu",
            hidden=(12, 12),
        )
        # reported utilities are recomputed from the game, never the surrogate
        again = ex_ante_utilities(g, res.policy, LEX)[0]
        assert np.allclose(again, res.report.utilities, atol=1e-12)
        welfares = [o.welfare for o in res.restarts]
        if res.verified:
            checked = [o for o in res.restarts if o.verified]
            assert max(welfares) >= max(c.welfare for c in checked) - 1e-12
            assert res.report.verdict == EPSILON_LOCAL
        assert len(res.restarts) == 6

    def test_protocol_yields_verified_candidate_on_generic_didactic(self):
        # the documented search protocol (300 restarts, eps 0.005, welfare-max
        # selection) produces at least one candidate the true-utility check
        # certifies; uses an off-knife-edge prior so locally-flat candidates exist
        g = didactic_game(prior=(0.45, 0.55))
        res = find_local_ne(
            g,
            TrainConfig(epochs=10, batch_size=128, learning_rate=0.01, seed=771),
            EgConfig(steps=20, learning_rate=0.1, restarts=300, seed=772),
            LEX,
            dataset=sample_dataset(g, 8000, LEX, 771),
            eps=0.005,
            arch="dnl",
            hidden=(16, 16, 16),
            hyper_hidden=(12,),
        )
        assert res.verified
        assert res.report.verdict == EPSILON_LOCAL
        assert sum(1 for o in res.restarts if o.verified) >= 1

    def test_uniform_prior_didactic_falls_back_to_best_welfare(self):
        # with the uniform prior every posterior set averages onto the
        # receiver's indifference line, so softmax-interior candidates always
        # admit microscopic improvements; the pipeline must still hand back
        # the unverified best-welfare candidate, which climbs near the 4.5
        # full-information ceiling
        g = didactic_game()
        res = find_local_ne(
            g,
            TrainConfig(epochs=8, batch_size=128, learning_rate=0.01, seed=771),
            EgConfig(steps=20, learning_rate=0.1, restarts=40, seed=772),
            LEX,
            dataset=sample_dataset(g, 5000, LEX, 771),
            eps=0.005,
            arch="dnl",
            hidden=(16, 16, 16),
            hyper_hidden=(12,),
        )
        assert not res.verified
        assert res.report.verdict == "refuted"
        assert float(res.report.utilities.sum()) > 4.0
        best = max(o.welfare for o in res.restarts)
        assert res.report.utilities.sum() == pytest.approx(best, abs=1e-12)

    def test_pipeline_deterministic(self):
        g = didactic_game()
        kw = dict(dataset=sample_dataset(g, 800, LEX, 31), eps=0.01, arch="relu", hidden=(10,))
        r1 = find_local_ne(g, TrainConfig(epochs=2, seed=31), EgConfig(steps=5, restarts=3, seed=32), LEX, **kw)
        r2 = find_local_ne(g, TrainConfig(epochs=2, seed=31), EgConfig(steps=5, restarts=3, seed=32), LEX, **kw)
        assert np.array_equal(r1.policy, r2.policy)
        assert r1.report.verdict == r2.report.verdict
        assert [o.welfare for o in r1.restarts] == [o.welfare for o in r2.restarts]
