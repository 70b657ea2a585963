import dataclasses

import numpy as np
import pytest

from persuade.equilibria import EPSILON_LOCAL
from persuade.game import Lexicographic, SenderFavoring, ex_ante_utilities, ex_ante_utilities_batch
from persuade.learning import (
    DIVERGENCE_GUARD,
    EgConfig,
    TrainConfig,
    TrainingDiverged,
    UtilityDataset,
    extragradient,
    find_local_ne,
    mse,
    sample_dataset,
    softmax_rows,
    split_dataset,
    train,
)
from persuade.learning import _ascent_direction
from persuade import learning, neural
from persuade.neural import flatten_params, init_params, stack_params, unstack_params
from persuade.reference import didactic_game, two_block_game, two_block_equilibrium_policies
from persuade.rng import substream

from conftest import random_game, reference_ex_ante, reference_extragradient, reference_train

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

    def test_rows_are_normalized_draws(self, rng):
        # every row is its substream's `exponential(1.0, size)` draws over `np.sum` of
        # them, bit for bit, for signal counts on both sides of numpy's 8-entry
        # pairwise-sum threshold, and at the sizes of the benchmark's labeling ops
        cases = [(random_game(2, 3, signals, 2, rng), 40) for signals in range(2, 10)]
        cases += [(random_game(2, 2, 2, 2, rng), 20_000), (random_game(3, 4, 3, 4, rng), 2_000)]
        for seed, (g, count) in enumerate(cases):
            ds = sample_dataset(g, count, LEX, seed=seed)
            draws = substream(seed, "dataset").exponential(1.0, size=(count, g.n_senders, g.states, g.signals))
            want = draws / np.sum(draws, axis=3, keepdims=True)
            assert np.array_equal(ds.policies().view(np.uint64), want.view(np.uint64))

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


def _fit(params, ds, cfg, sender):
    """Train one network on one utility column of `ds`: a stack of one."""
    column = UtilityDataset(inputs=ds.inputs, utilities=ds.utilities[:, [sender]], game=ds.game)
    stack, losses = train(stack_params([params]), column, cfg)
    return unstack_params(stack)[0], losses[0]


class TestTrain:
    def test_constant_labels_fit_to_machine_noise(self, rng):
        g = didactic_game()
        ds = sample_dataset(g, 2000, LEX, seed=5)
        const = UtilityDataset(inputs=ds.inputs, utilities=np.full_like(ds.utilities, 0.7), game=g)
        for arch in ("relu", "delu", "dnl"):
            params = init_params(arch, [8, 8, 8, 8, 1], substream(6, "c"), hyper_hidden=(6,), aux_hidden=(6,))
            params, _ = _fit(params, const, TrainConfig(epochs=30, batch_size=32, learning_rate=0.02, seed=6), 0)
            assert mse(params, const.inputs, const.utilities[:, [0]]) < 1e-6, arch

    def test_loss_history_smoothed_non_increasing(self):
        g = didactic_game()
        ds = sample_dataset(g, 4000, LEX, seed=7)
        params = init_params("dnl", [8, 16, 16, 16, 1], substream(7, "init"), hyper_hidden=(12,))
        _, losses = _fit(params, ds, TrainConfig(epochs=15, batch_size=128, seed=7), 1)
        smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smooth) <= 1e-3)

    def test_deterministic_given_seed(self):
        g = didactic_game()
        ds = sample_dataset(g, 500, LEX, seed=8)
        cfg = TrainConfig(epochs=2, batch_size=64, seed=9)
        p1 = stack_params([init_params("relu", [8, 10, 1], substream(9, f"init:{j}")) for j in range(2)])
        p2 = stack_params([init_params("relu", [8, 10, 1], substream(9, f"init:{j}")) for j in range(2)])
        t1, l1 = train(p1, ds, cfg)
        t2, l2 = train(p2, ds, cfg)
        assert l1 == l2
        assert np.array_equal(flatten_params(t1), flatten_params(t2))

    def test_divergence_guard(self):
        g = didactic_game()
        ds = sample_dataset(g, 200, LEX, seed=10)
        big = UtilityDataset(inputs=ds.inputs, utilities=ds.utilities * 1e9, game=g)
        params = init_params("relu", [8, 8, 1], substream(10, "init"))
        with pytest.raises(RuntimeError, match="diverged"):
            _fit(params, big, TrainConfig(epochs=3, batch_size=64, learning_rate=10.0, seed=10), 0)

    def test_divergence_names_the_sender_and_the_epoch(self):
        # only sender 1's labels are out of scale: its first epoch's loss
        # passes the guard while sender 0 trains normally
        g = didactic_game()
        ds = sample_dataset(g, 200, LEX, seed=10)
        labels = ds.utilities * np.array([1.0, 1e9])
        skewed = UtilityDataset(inputs=ds.inputs, utilities=labels, game=g)
        stack = stack_params([init_params("relu", [8, 8, 1], substream(10, f"init:{j}")) for j in range(2)])
        with pytest.raises(TrainingDiverged, match=r"^training diverged at epoch 0, sender 1: loss "):
            train(stack, skewed, TrainConfig(epochs=3, batch_size=64, seed=10))
        # sender 0 alone trains through all three epochs
        _, losses = _fit(init_params("relu", [8, 8, 1], substream(10, "init:0")), skewed,
                         TrainConfig(epochs=3, batch_size=64, seed=10), 0)
        assert len(losses) == 3 and max(losses) < DIVERGENCE_GUARD

    def test_stack_must_match_the_utility_columns(self):
        ds = sample_dataset(didactic_game(), 50, LEX, seed=10)
        with pytest.raises(ValueError, match="stack of 1 networks for 2 utility columns"):
            train(stack_params([_net("relu", 10)]), ds, TrainConfig(seed=10))
        with pytest.raises(ValueError, match="takes a stack of networks"):
            train(_net("relu", 10), ds, TrainConfig(seed=10))

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan])
    def test_learning_rate_must_be_positive(self, rate):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError, match="learning rate"):
            EgConfig(learning_rate=rate)

    def test_empty_dataset_rejected(self):
        g = didactic_game()
        ds = sample_dataset(g, 10, LEX, seed=11)
        empty = UtilityDataset(inputs=ds.inputs[:0], utilities=ds.utilities[:0], game=g)
        params = init_params("relu", [8, 8, 1], substream(11, "init"))
        with pytest.raises(ValueError):
            _fit(params, empty, TrainConfig(seed=11), 0)


def _net(arch, seed, inputs=8):
    """A small scalar net of each architecture over `inputs` inputs (the didactic game's 8 by default)."""
    return init_params(arch, [inputs, 8, 8, 8, 1], substream(seed, "init"), hyper_hidden=(6,), aux_hidden=(6,))


class TestTrainMatchesReference:
    """Each slice of the stacked `train` against the per-sender, per-step
    unflatten/forward/backward/flatten loop."""

    @pytest.mark.parametrize("arch", ["relu", "delu", "dnl"])
    @pytest.mark.parametrize("senders", [2, 3])
    def test_bit_identical_params_and_losses(self, arch, senders, rng):
        g = didactic_game() if senders == 2 else random_game(3, 2, 2, 2, rng)
        ds = sample_dataset(g, 300, LEX, seed=13)
        cfg = TrainConfig(epochs=3, batch_size=64, learning_rate=0.02, seed=13)   # 300 = 4 * 64 + 44
        nets = [_net(arch, 13 + j, ds.inputs.shape[1]) for j in range(senders)]
        trained, losses = train(stack_params(nets), ds, cfg)
        assert len(losses) == senders
        for j, (net, got) in enumerate(zip(nets, unstack_params(trained))):
            ref, ref_losses = reference_train(net, ds, cfg, sender=j)
            assert np.array_equal(flatten_params(got), flatten_params(ref)), j
            assert losses[j] == ref_losses, j
            assert len(ref_losses) == cfg.epochs

    @pytest.mark.parametrize("arch", ["relu", "delu", "dnl"])
    def test_one_epoch_at_criterion_7_shape(self, arch):
        # batch 512, width 24, and a DNL hypernetwork of 24 * 24 * 2 + 24 * 2 + 24 + 1 = 1,225 outputs;
        # 1,200 rows = 2 * 512 + 176
        ds = sample_dataset(didactic_game(), 1200, LEX, seed=101)
        cfg = TrainConfig(epochs=1, batch_size=512, learning_rate=0.01, seed=202)
        nets = [init_params(arch, [8, 24, 24, 24, 1], substream(202, f"init:{arch}:{j}"),
                            hyper_hidden=(24,), aux_hidden=(24, 24)) for j in range(2)]
        if arch == "dnl":
            assert nets[0].hyper.dims[-1] == 1225
        trained, losses = train(stack_params(nets), ds, cfg)
        for j, (net, got) in enumerate(zip(nets, unstack_params(trained))):
            ref, ref_losses = reference_train(net, ds, cfg, sender=j)
            assert np.array_equal(flatten_params(got), flatten_params(ref)), j
            assert losses[j] == ref_losses, j

    @pytest.mark.parametrize("arch", ["relu", "delu", "dnl"])
    def test_stacked_mse_is_each_slice_mse(self, arch, monkeypatch):
        monkeypatch.setattr(learning, "MSE_CHUNK", 128)      # 300 rows in three chunks
        ds = sample_dataset(didactic_game(), 300, LEX, seed=17)
        nets = [_net(arch, 17 + j) for j in range(2)]
        errors = mse(stack_params(nets), ds.inputs, ds.utilities)
        assert errors.shape == (2,)
        for j, net in enumerate(nets):
            assert errors[j] == mse(net, ds.inputs, ds.utilities[:, [j]])

    @pytest.mark.parametrize("arch, stacks", [("relu", 1), ("delu", 2), ("dnl", 2)])
    def test_one_forward_pass_per_step(self, arch, stacks, monkeypatch):
        calls = []
        orig = neural._stack_forward

        def counted(params, x, relu_last):
            calls.append(x.shape[-2])
            return orig(params, x, relu_last)

        monkeypatch.setattr(neural, "_stack_forward", counted)
        ds = sample_dataset(didactic_game(), 100, LEX, seed=14)
        train(stack_params([_net(arch, 14 + j) for j in range(2)]), ds, TrainConfig(epochs=2, batch_size=64, seed=14))
        steps = 2 * 2                               # 2 epochs of a 64-row and a 36-row batch
        assert len(calls) == stacks * steps
        assert sorted(set(calls)) == [36, 64]

    @pytest.mark.parametrize("arch", ["relu", "delu", "dnl"])
    def test_caller_params_untouched(self, arch):
        ds = sample_dataset(didactic_game(), 200, LEX, seed=15)
        params = stack_params([_net(arch, 15 + j) for j in range(2)])
        before = flatten_params(params)
        trained, _ = train(params, ds, TrainConfig(epochs=2, batch_size=64, seed=15))
        assert np.array_equal(flatten_params(params), before)
        assert not np.array_equal(flatten_params(trained), before)
        for a in neural.param_arrays(params):
            assert not any(np.shares_memory(a, b) for b in neural.param_arrays(trained))


# Test networks: `neural.backward` calls `_run(x)` for (output, gates, cache)
# and `_grads(cache, upstream, input_grad)` for (parameter gradients, input
# gradient).  Each stands for a stack of two senders' networks.


class _Constant:
    def _run(self, x):
        return np.zeros((2, len(x), 1)), [], x

    def _grads(self, x, d, input_grad):
        return None, np.zeros((2, *x.shape))


class _Saddle:
    """f(p1, p2) = (p1 - 1/2)(p2 - 1/2) over two 1-state binary policies:
    sender 0 maximises f and sender 1 maximises -f."""

    sign = np.array([1.0, -1.0])[:, None]

    def _run(self, x):
        return (self.sign * (x[:, 0] - 0.5) * (x[:, 2] - 0.5))[..., None], [], x

    def _grads(self, x, d, input_grad):
        g = np.zeros((2, *x.shape))
        g[:, :, 0] = self.sign * (x[:, 2] - 0.5) * d[:, :, 0]
        g[:, :, 2] = self.sign * (x[:, 0] - 0.5) * d[:, :, 0]
        return None, g


class TestExtragradient:
    def test_softmax_rows_are_policies(self, rng):
        logits = rng.normal(scale=8.0, size=(3, 4, 5))
        pol = softmax_rows(logits)
        assert np.allclose(pol.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(pol >= 0)

    def test_zero_gradient_is_fixed_point(self, rng):
        init = rng.normal(size=(2, 2, 2))
        pol = extragradient(_Constant(), init, EgConfig(steps=25, restarts=1, seed=0))
        assert np.allclose(pol, softmax_rows(init), atol=1e-15)

    def test_exact_ne_logits_returned_unchanged(self):
        # constant surrogates leave any start alone, so seeding with an exact
        # equilibrium's logits hands that equilibrium straight back
        g = two_block_game()
        prof = two_block_equilibrium_policies()
        logits = np.log(prof + 1e-12)
        pol = extragradient(_Constant(), logits, EgConfig(steps=10, restarts=1, seed=0))
        assert np.allclose(pol, prof, atol=1e-11)
        u = ex_ante_utilities(g, pol, SenderFavoring())[0]
        assert np.allclose(u, [0.3, 0.3], atol=1e-9)

    def test_saddle_contracts_where_simultaneous_ascent_does_not(self):
        surrogates = _Saddle()
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
        params = init_params("relu", [8, 10, 1], substream(12, "init"))
        params, _ = _fit(params, ds, TrainConfig(epochs=2, batch_size=64, seed=12), 0)
        nets = stack_params([params, params])
        init = rng.normal(size=(2, 2, 2))
        cfg = EgConfig(steps=15, restarts=1, seed=0)
        assert np.array_equal(extragradient(nets, init, cfg), extragradient(nets, init, cfg))

    @pytest.mark.parametrize("arch", ["relu", "delu", "dnl"])
    @pytest.mark.parametrize("restarts", [1, 2, 7])
    def test_batched_restarts_match_per_restart_loop(self, arch, restarts):
        # 2 senders, 3 states, 2 signals: 12 inputs per network
        nets = [init_params(arch, [12, 8, 8, 8, 1], substream(16, f"init:{j}"), hyper_hidden=(6,), aux_hidden=(6,))
                for j in range(2)]
        init = substream(16, "logits").normal(size=(restarts, 2, 3, 2))
        cfg = EgConfig(steps=20, learning_rate=0.1, restarts=restarts, seed=0)
        got = extragradient(stack_params(nets), init, cfg)
        ref = reference_extragradient(nets, init, cfg)
        assert got.shape == init.shape
        assert np.abs(got - ref).max() <= 1e-12
        if restarts == 1:
            assert np.array_equal(got, ref)
            assert np.array_equal(extragradient(stack_params(nets), init[0], cfg), ref[0])

    def test_one_network_per_sender(self):
        nets = stack_params([_net("relu", 18, 4) for _ in range(3)])
        with pytest.raises(ValueError, match="one network per sender"):
            extragradient(nets, np.zeros((2, 1, 2)), EgConfig(steps=1, restarts=1, seed=0))

    def test_nonfinite_gradient_aborts(self):
        class Broken:
            def _run(self, x):
                return np.zeros((2, len(x), 1)), [], x

            def _grads(self, x, d, input_grad):
                return None, np.full((2, *x.shape), np.nan)

        with pytest.raises(RuntimeError):
            extragradient(Broken(), np.zeros((2, 1, 2)), EgConfig(steps=1, restarts=1, seed=0))


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
        # each restart ascends from its own substream, and the batched kernel scores it
        # exactly as the one-profile evaluation does
        eg_cfg = EgConfig(steps=10, learning_rate=0.1, restarts=6, seed=22)
        inits = np.stack([substream(22, f"init:restart:{r}").normal(size=(2, 2, 2)) for r in range(6)])
        ref = reference_extragradient(res.nets, inits, eg_cfg)
        for o in res.restarts:
            assert np.abs(o.policy - ref[o.restart]).max() <= 1e-12
            assert np.array_equal(o.utilities, ex_ante_utilities(g, o.policy, LEX)[0])
            assert o.welfare == float(o.utilities.sum())

    def test_protocol_yields_verified_candidate_on_generic_didactic(self):
        # the documented search protocol (300 restarts, eps 0.005, welfare-max
        # selection) produces at least one candidate the true-utility check
        # certifies; uses an off-knife-edge prior so locally-flat candidates exist
        g = dataclasses.replace(didactic_game(), prior=np.array([0.45, 0.55]))
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
