import json
import re

import numpy as np
import pytest

from persuade import neural
from persuade.neural import (
    DeluParams,
    DnlParams,
    MlpParams,
    backward,
    flatten_params,
    forward,
    forward_with_pattern,
    init_params,
    param_arrays,
    save_params,
    stack_params,
    unstack_params,
)
from persuade.neural import _split_flat, _stack_forward

from conftest import linear_piece


def pattern_margin(params, x):
    """Smallest |pre-activation| over the units whose bits gate the gradients."""
    xb = np.atleast_2d(x)
    if isinstance(params, DnlParams):
        _, pres, _ = _stack_forward(params.lower, xb, relu_last=True)
    elif isinstance(params, DeluParams):
        _, pres, _ = _stack_forward(params.hidden, xb, relu_last=True)
    else:
        _, pres, _ = _stack_forward(params, xb, relu_last=False)
        pres = pres[:-1]
    vals = [np.abs(p).min() for p in pres if p.size]
    return min(vals) if vals else np.inf


def one(params, x):
    """(output, activation pattern) at the single input `x`, run as a batch of one row."""
    out, pattern = forward_with_pattern(params, x[None])
    return out[0], pattern[0]


def backbone(p: DeluParams, bias=0.0) -> MlpParams:
    """The ReLU net of a DeLU's hidden stack and head with a constant output bias."""
    return MlpParams(p.hidden.weights + [p.head], p.hidden.biases + [np.full(p.head.shape[0], bias)])


def stable_point(params, dim, rng, margin):
    while True:
        x = rng.normal(size=dim)
        if pattern_margin(params, x) > margin:
            return x


def fd_gradients(params, x, h=1e-5):
    """Central differences for all parameters and input coordinates."""
    flat = flatten_params(params)
    gp = np.zeros_like(flat)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        gp[i] = (forward(neural._param_views(params, fp), x[None]).sum()
                 - forward(neural._param_views(params, fm), x[None]).sum()) / (2 * h)
    gx = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        gx[i] = (forward(params, xp[None]).sum() - forward(params, xm[None]).sum()) / (2 * h)
    return gp, gx


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


NETS = pytest.mark.parametrize(
    "make",
    [
        lambda rng: init_params("relu", [5, 8, 8, 2], rng),
        lambda rng: init_params("delu", [5, 8, 8, 2], rng, aux_hidden=(6,)),
        lambda rng: init_params("dnl", [5, 8, 8, 8, 2], rng, hyper_hidden=(6, 6)),
    ],
    ids=["relu", "delu", "dnl"],
)


class TestForwardRelu:
    def test_all_zero_params(self):
        p = MlpParams([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
        y, r = one(p, np.array([1.0, -2.0, 3.0]))
        assert np.all(y == 0.0)
        assert np.all(r == 1.0)          # zero pre-activation counts as active

    def test_single_layer_identity_is_linear(self):
        p = MlpParams([np.eye(3)], [np.zeros(3)])
        x = np.array([0.5, -0.25, 0.0])
        y, r = one(p, x)
        assert np.array_equal(y, x)      # output layer has no activation
        assert r.size == 0

    def test_relu_applied_between_layers(self):
        p = MlpParams([np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)])
        x = np.array([0.5, -0.25, 1.0])
        y, _ = one(p, x)
        assert np.array_equal(y, np.maximum(x, 0.0))

    def test_linear_piece_identity(self, rng):
        p = init_params("relu", [5, 12, 12, 3], rng)
        for _ in range(20):
            x = rng.normal(size=5)
            y, r = one(p, x)
            M, z = linear_piece(p, r)
            assert np.allclose(M @ x + z, y, atol=1e-10)


class TestGradients:
    @NETS
    def test_against_central_differences(self, make, rng):
        params = make(rng)
        for _ in range(4):
            x = stable_point(params, 5, rng, margin=1e-3)
            g = backward(params, x[None], np.ones_like)
            gp, gx = fd_gradients(params, x)
            assert rel_err(flatten_params(g.params), gp).max() < 1e-4
            assert rel_err(g.input[0], gx).max() < 1e-4

    def test_linear_net_input_gradient_is_w_transpose(self, rng):
        W = rng.normal(size=(3, 4))
        p = MlpParams([W], [rng.normal(size=3)])
        up = rng.normal(size=3)
        g = backward(p, rng.normal(size=(1, 4)), lambda out: up[None])
        assert np.allclose(g.input[0], W.T @ up, atol=1e-14)

    def test_zero_upstream_zero_gradients(self, rng):
        p = init_params("dnl", [4, 6, 6, 1], rng, hyper_hidden=(5,))
        g = backward(p, rng.normal(size=(1, 4)), np.zeros_like)
        assert np.all(flatten_params(g.params) == 0.0)
        assert np.all(g.input == 0.0)

    def test_batch_gradients_sum_over_samples(self, rng):
        p = init_params("relu", [4, 6, 1], rng)
        X = rng.normal(size=(5, 4))
        up = rng.normal(size=(5, 1))
        total = backward(p, X, lambda out: up)
        acc = np.zeros_like(flatten_params(p))
        for i in range(5):
            acc += flatten_params(backward(p, X[i : i + 1], lambda out: up[i : i + 1]).params)
        assert np.allclose(flatten_params(total.params), acc, atol=1e-12)


    @NETS
    def test_upstream_is_a_function_of_the_output(self, make, rng):
        params = make(rng)
        for x in (rng.normal(size=(1, 5)), rng.normal(size=(7, 5))):
            up = rng.normal(size=(len(x), 2))
            seen = []
            g = backward(params, x, lambda out: seen.append(out) or up)
            assert len(seen) == 1 and np.array_equal(seen[0], forward(params, x))
            assert np.array_equal(g.output, forward(params, x))
            assert g.input.shape == x.shape

    @NETS
    def test_input_must_be_a_batch(self, make, rng):
        params = make(rng)
        for x in (rng.normal(size=5), rng.normal(size=(2, 3, 5))):
            for call in (lambda: forward(params, x), lambda: forward_with_pattern(params, x),
                         lambda: backward(params, x, np.ones_like)):
                with pytest.raises(ValueError, match=r"\(rows, inputs\) batch, got shape " + re.escape(str(x.shape))):
                    call()

    def test_array_upstream_unchanged(self, rng):
        # a linear layer's gradients in closed form: d/dW = up^T x, d/db = sum(up), d/dx = up W
        W, b = rng.normal(size=(3, 4)), rng.normal(size=3)
        X, up = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        g = backward(MlpParams([W], [b]), X, lambda out: up)
        assert np.array_equal(g.params.weights[0], up.T @ X)
        assert np.array_equal(g.params.biases[0], up.sum(axis=0))
        assert np.array_equal(g.input, up @ W)
        assert np.array_equal(g.output, X @ W.T + b)


class TestDelu:
    def test_constant_aux_equals_relu_with_that_bias(self, rng):
        p = init_params("delu", [4, 6, 1], rng, aux_hidden=())
        p.aux.weights[0][:] = 0.0
        p.aux.biases[0][:] = 0.37
        X = rng.normal(size=(20, 4))
        assert np.allclose(forward(p, X), forward_with_pattern(backbone(p, 0.37), X)[0], atol=1e-14)

    @pytest.mark.parametrize(
        "dims, aux_hidden", [([8, 16, 16, 16, 1], (16, 16)), ([5, 8, 8, 2], (6,)), ([3, 4, 1], ())]
    )
    def test_matches_relu_backbone_with_generated_bias(self, dims, aux_hidden):
        # the layout that kept a dead backbone output bias, built from ReLU
        # pieces: on one stream the backbone is drawn first, then the aux net
        for seed in range(20):
            p = init_params("delu", dims, np.random.default_rng(seed), aux_hidden=aux_hidden)
            stream = np.random.default_rng(seed)
            bb = init_params("relu", dims, stream)
            aux = init_params("relu", [sum(dims[1:-1]), *aux_hidden, dims[-1]], stream)
            bb.biases[-1][:] = 0.0
            kept = neural.param_arrays(bb)[:-1] + neural.param_arrays(aux)
            assert np.array_equal(flatten_params(p), np.concatenate([a.ravel() for a in kept]))
            data = np.random.default_rng(1000 + seed)
            for x in (data.normal(size=(128, dims[0])), data.normal(size=(1, dims[0]))):
                up = data.normal(size=x.shape[:-1] + (dims[-1],))
                o, r = forward_with_pattern(bb, x)
                y = o - bb.biases[-1] + forward_with_pattern(aux, r)[0]
                assert np.array_equal(forward(p, x), y)
                g, g_bb, g_aux = (backward(net, z, lambda out: up) for net, z in ((p, x), (bb, x), (aux, r)))
                assert np.array_equal(g.output, y)
                assert np.array_equal(g.input, g_bb.input)
                expected = neural.param_arrays(g_bb.params)[:-1] + neural.param_arrays(g_aux.params)
                got = neural.param_arrays(g.params)
                assert len(got) == len(expected)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_needs_a_hidden_layer(self, rng):
        with pytest.raises(ValueError, match="hidden layer"):
            init_params("delu", [4, 1], rng, aux_hidden=(3,))

    def test_affine_within_a_piece(self, rng):
        p = init_params("delu", [4, 10, 10, 1], rng, aux_hidden=(8,))
        for _ in range(50):
            x = rng.normal(size=4)
            d = rng.normal(size=4)
            d /= np.linalg.norm(d)
            step = 0.45 * pattern_margin(p, x) / 10.0
            a, b = x - step * d, x + step * d
            pts = [a, (a + b) / 2, b]
            pats = []
            for q in pts:
                _, pres, _ = _stack_forward(p.hidden, q[None], relu_last=True)
                pats.append(tuple((np.concatenate([h.ravel() for h in pres]) >= 0).tolist()))
            if len(set(pats)) != 1:
                continue
            ys = [float(forward(p, q[None])[0, 0]) for q in pts]
            assert ys[1] == pytest.approx((ys[0] + ys[2]) / 2, abs=1e-9)
            break
        else:
            pytest.fail("no common-piece segment found")

    def test_jump_across_boundary_is_aux_difference(self, rng):
        # boundary between patterns: as the bracket shrinks, the output jump
        # approaches the auxiliary bias difference (the backbone is continuous)
        p = init_params("delu", [3, 8, 8, 1], rng, aux_hidden=(6,))
        bb = backbone(p)
        for _ in range(200):
            a, b = rng.normal(size=3), rng.normal(size=3)
            _, ra = one(bb, a)
            _, rb = one(bb, b)
            if not np.array_equal(ra, rb):
                break
        lo, hi = a, b
        for _ in range(80):
            mid = (lo + hi) / 2
            _, rm = one(bb, mid)
            if np.array_equal(rm, ra):
                lo = mid
            else:
                hi = mid
        _, r_lo = one(bb, lo)
        _, r_hi = one(bb, hi)
        aux_lo, _, _ = _stack_forward(p.aux, r_lo[None], relu_last=False)
        aux_hi, _, _ = _stack_forward(p.aux, r_hi[None], relu_last=False)
        jump = float(forward(p, hi[None])[0, 0]) - float(forward(p, lo[None])[0, 0])
        backbone_change = float((one(bb, hi)[0] - one(bb, lo)[0])[0])
        assert jump == pytest.approx(float((aux_hi - aux_lo)[0, 0]) + backbone_change, abs=1e-9)


class TestDnl:
    def test_zero_hypernet_collapses_to_fixed_mlp(self, rng):
        p = init_params("dnl", [4, 6, 6, 1], rng, hyper_hidden=(5,))
        for w in p.hyper.weights:
            w[:] = 0.0
        for b in p.hyper.biases[:-1]:
            b[:] = 0.0
        flat = rng.normal(size=p.hyper.biases[-1].shape)
        p.hyper.biases[-1][:] = flat
        ws, bs = _split_flat(flat[None], p.higher_dims)
        composed = MlpParams(
            p.lower.weights + [ws[0][0], ws[1][0]], p.lower.biases + [bs[0][0], bs[1][0]]
        )
        X = rng.normal(size=(10, 4))
        assert np.allclose(forward_with_pattern(p, X)[0], forward_with_pattern(composed, X)[0], atol=1e-12)

    def test_same_lower_pattern_same_generated_weights(self, rng):
        p = init_params("dnl", [4, 6, 6, 6, 1], rng, hyper_hidden=(5,))
        x = rng.normal(size=4)
        # stay strictly inside the piece
        step = 0.4 * pattern_margin(p, x) / 10.0
        y = x + step * rng.normal(size=4) / 10
        _, rx = one(p, x)
        _, ry = one(p, y)
        if np.array_equal(rx, ry):
            fx, _, _ = _stack_forward(p.hyper, rx[None], relu_last=False)
            fy, _, _ = _stack_forward(p.hyper, ry[None], relu_last=False)
            assert np.array_equal(fx, fy)

    def test_didactic_scale_architecture_jumps_at_piece_boundary(self):
        # 3 hidden layers of 64 with the first layer driving a 2x32 hypernet:
        # scan a segment, find a lower-pattern change, and confirm a genuine
        # output discontinuity by shrinking the bracket
        rng = np.random.default_rng(7)
        p = init_params("dnl", [8, 64, 64, 64, 1], rng, hyper_hidden=(32, 32))
        a, b = rng.normal(size=8), rng.normal(size=8)
        _, ra = one(p, a)
        _, rb = one(p, b)
        assert not np.array_equal(ra, rb)
        lo, hi = a, b
        for _ in range(80):
            mid = (lo + hi) / 2
            _, rm = one(p, mid)
            if np.array_equal(rm, ra):
                lo = mid
            else:
                hi = mid
        gap = abs(float(one(p, hi)[0][0]) - float(one(p, lo)[0][0]))
        assert np.linalg.norm(hi - lo) < 1e-9
        assert gap > 1e-4

    def test_can_be_nonlinear_within_one_piece(self):
        # hand-built generated part computing |x|: grossly non-affine inside a
        # single lower piece, which a pattern-conditioned bias can never be
        p = init_params("dnl", [1, 2, 2, 1], np.random.default_rng(0), hyper_hidden=(2,))
        p.lower.weights[0][:] = [[1.0], [-1.0]]
        p.lower.biases[0][:] = [10.0, 10.0]       # pattern constant near 0
        for w in p.hyper.weights:
            w[:] = 0.0
        for b in p.hyper.biases[:-1]:
            b[:] = 0.0
        # higher part: h = [o1 - 10, o2 - 10] = [x, -x]; out = relu(h1) + relu(h2) = |x|
        W2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        b2 = np.array([-10.0, -10.0])
        W3 = np.array([[1.0, 1.0]])
        b3 = np.array([0.0])
        p.hyper.biases[-1][:] = np.concatenate([W2.ravel(), b2, W3.ravel(), b3])
        xs = np.array([[-1.0], [0.0], [1.0]])
        ys, rs = forward_with_pattern(p, xs)
        assert np.unique(rs, axis=0).shape[0] == 1            # one lower piece
        assert np.allclose(ys.ravel(), [1.0, 0.0, 1.0], atol=1e-12)
        violation = abs(0.5 * (ys[0, 0] + ys[2, 0]) - ys[1, 0])
        assert violation > 0.1


class TestPatternStability:
    def test_pattern_constant_within_half_margin(self, rng):
        p = init_params("relu", [5, 10, 10, 1], rng)
        for _ in range(20):
            x = rng.normal(size=5)
            _, pres, _ = _stack_forward(p, x[None], relu_last=False)
            margin = min(np.abs(h).min() for h in pres[:-1])
            if margin < 1e-6:
                continue
            # crude input-to-preactivation gain bound keeps the probe safe
            gain = max(np.abs(w).sum() for w in p.weights) ** 2
            delta = min(margin / (2 * gain), margin / 2)
            _, r0 = one(p, x)
            for _ in range(5):
                d = rng.uniform(-delta, delta, size=5)
                _, r1 = one(p, x + d)
                assert np.array_equal(r0, r1)


class TestPiecewiseLinearity:
    def test_blend_stays_on_segment_when_patterns_match(self, rng):
        p = init_params("relu", [4, 8, 8, 1], rng)
        done = 0
        for _ in range(500):
            x, y = rng.normal(size=4), rng.normal(size=4)
            fx, rx = one(p, x)
            fy, ry = one(p, y)
            if not np.array_equal(rx, ry):
                continue
            ok = True
            for lam in (0.25, 0.5, 0.75):
                z = lam * x + (1 - lam) * y
                fz, rz = one(p, z)
                if not np.array_equal(rz, rx):
                    ok = False
                    break
                assert np.allclose(fz, lam * fx + (1 - lam) * fy, atol=1e-9)
            done += ok
            if done >= 10:
                break
        assert done >= 3


class TestStacks:
    """A stack computes, slice by slice, what each of its networks computes alone."""

    @NETS
    def test_slices_bit_identical_to_each_network(self, make, rng):
        nets = [make(rng) for _ in range(3)]
        stack = stack_params(nets)
        for x in (rng.normal(size=(1, 5)), rng.normal(size=(7, 5))):
            up = rng.normal(size=(3, *forward(nets[0], x).shape))
            out, pattern = forward_with_pattern(stack, x)
            g = backward(stack, x, lambda out: up)
            assert out.shape == up.shape
            for j, net in enumerate(nets):
                o, r = forward_with_pattern(net, x)
                gj = backward(net, x, lambda out: up[j])
                assert np.array_equal(out[j], o) and np.array_equal(pattern[j], r)
                assert np.array_equal(g.output[j], gj.output)
                assert np.array_equal(g.input[j], gj.input)
                for a, b in zip(param_arrays(g.params), param_arrays(gj.params)):
                    assert np.array_equal(a[j], b)

    @NETS
    def test_input_gradient_skipped_on_request(self, make, rng):
        params = make(rng)
        X, up = rng.normal(size=(7, 5)), rng.normal(size=(7, 2))
        full = backward(params, X, lambda out: up)
        lean = backward(params, X, lambda out: up, input_grad=False)
        assert lean.input is None
        assert np.array_equal(lean.output, full.output)
        assert np.array_equal(flatten_params(lean.params), flatten_params(full.params))

    def test_unstacked_slices_are_views_and_checkpoint_as_networks(self, rng, tmp_path):
        nets = [init_params("dnl", [4, 6, 6, 2], rng, hyper_hidden=(5,)) for _ in range(2)]
        stack = stack_params(nets)
        parts = unstack_params(stack)
        assert len(parts) == 2
        for j, (net, part) in enumerate(zip(nets, parts)):
            assert np.array_equal(flatten_params(part), flatten_params(net))
            assert all(np.shares_memory(a, b) for a, b in zip(param_arrays(part), param_arrays(stack)))
            save_params(tmp_path / f"net{j}.json", part)
            assert json.loads((tmp_path / f"net{j}.json").read_text())["params"] == flatten_params(net).tolist()
            save_params(tmp_path / "alone.json", net)
            assert (tmp_path / f"net{j}.json").read_text() == (tmp_path / "alone.json").read_text()


class TestCheckpoints:
    def test_layout_all_architectures(self, rng, tmp_path):
        # the package reads no checkpoint, so the written JSON is checked as an outside reader sees it
        nets = [
            (init_params("relu", [4, 6, 2], rng), {"dims": [4, 6, 2]}),
            (init_params("delu", [4, 6, 6, 2], rng, aux_hidden=(5,)), {"dims": [4, 6, 6, 2], "aux_dims": [12, 5, 2]}),
            (init_params("dnl", [4, 6, 6, 2], rng, hyper_hidden=(5,)),
             {"lower_dims": [4, 6], "hyper_dims": [6, 5, 56], "higher_dims": [6, 6, 2]}),
        ]
        for i, (p, spec) in enumerate(nets):
            path = tmp_path / f"net{i}.json"
            save_params(path, p)
            doc = json.loads(path.read_text())
            assert doc == {"format": "persuade-checkpoint", "version": 2, "arch": p.arch, **spec,
                           "params": flatten_params(p).tolist()}
            assert list(doc) == ["format", "version", "arch", *spec, "params"]
