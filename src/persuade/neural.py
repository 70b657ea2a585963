"""From-scratch differentiable approximators with exact manual gradients.

Three architectures share one parameter container:

* plain ReLU MLP - continuous and piecewise linear;
* DeLU - a ReLU backbone whose output-layer bias is produced by an
  auxiliary net from the full activation pattern, so the function is
  piecewise linear but discontinuous across pattern boundaries;
* DNL - the first K layers are an ordinary ReLU stack, and a hypernetwork
  maps their activation pattern to the weights and biases of the remaining
  layers, so each piece carries its own *nonlinear* sub-network and the
  function is discontinuous and piecewise nonlinear.

A pre-activation of exactly zero counts as active (bit 1); gradients treat
the activation pattern as locally constant, i.e. they are the gradients of
the piece containing the input.  All forward/backward functions accept a
single vector or a batch (leading axis).  `backward` also returns the
network output, and takes the upstream gradient either as an array or as
a function of that output, so a training step needs one forward pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class MlpParams:
    """Dense layers; the last layer is linear, earlier ones are ReLU."""

    weights: list
    biases: list

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class DeluParams:
    """ReLU backbone plus an auxiliary net mapping pattern bits to the output bias.

    The backbone's own output bias is dead weight (kept zero); the bias the
    network actually uses comes from `aux`.
    """

    backbone: MlpParams
    aux: MlpParams

    def copy(self) -> "DeluParams":
        return DeluParams(self.backbone.copy(), self.aux.copy())


@dataclass
class DnlParams:
    """K-layer ReLU stack, hypernetwork, and the generated part's layer dims.

    ``higher_dims = (n_K, ..., n_L, d_out)``: the hypernetwork output is the
    flattened weights and biases of the layers connecting those widths.
    """

    lower: MlpParams
    hyper: MlpParams
    higher_dims: tuple

    def copy(self) -> "DnlParams":
        return DnlParams(self.lower.copy(), self.hyper.copy(), tuple(self.higher_dims))


@dataclass
class Gradients:
    """Parameter gradients (same container type and shapes as the
    differentiated parameters), the input gradient, and the network output
    of the forward pass they came from."""

    params: MlpParams | DeluParams | DnlParams
    input: np.ndarray
    output: np.ndarray


# ---------------------------------------------------------------------------
# initialization


def _init_layer(n_out, n_in, rng):
    bound = np.sqrt(1.0 / n_in)
    return rng.uniform(-bound, bound, size=(n_out, n_in)), rng.uniform(-bound, bound, size=n_out)


def init_relu(dims, rng) -> MlpParams:
    """dims = [input, hidden..., output]."""
    ws, bs = [], []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        w, b = _init_layer(n_out, n_in, rng)
        ws.append(w)
        bs.append(b)
    return MlpParams(ws, bs)


def init_delu(dims, aux_hidden, rng) -> DeluParams:
    backbone = init_relu(dims, rng)
    backbone.biases[-1][:] = 0.0
    n_bits = sum(dims[1:-1])
    aux = init_relu([n_bits, *aux_hidden, dims[-1]], rng)
    return DeluParams(backbone, aux)


def init_dnl(dims, lower_layers, hyper_hidden, rng) -> DnlParams:
    """dims = [input, hidden..., output]; the first `lower_layers` hidden
    layers form the lower stack, the rest are generated."""
    L = len(dims) - 2
    if not 1 <= lower_layers < L:
        raise ValueError("need at least one lower layer and two generated linear layers")
    lower_dims = dims[: lower_layers + 1]
    higher_dims = tuple(dims[lower_layers:])
    lower = init_relu(lower_dims, rng)          # final layer of the stack is still ReLU-activated
    n_bits = sum(lower_dims[1:])
    n_flat = sum(a * b + a for a, b in zip(higher_dims[1:], higher_dims[:-1]))
    hyper = init_relu([n_bits, *hyper_hidden, n_flat], rng)
    return DnlParams(lower, hyper, higher_dims)


# ---------------------------------------------------------------------------
# shared primitives


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _stack_forward(params: MlpParams, x, relu_last: bool):
    """Forward through all layers; ReLU after each except (optionally) the last.

    Returns (output, pre-activations, layer inputs).
    """
    pres, inputs = [], []
    o = x
    n = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(o)
        h = o @ w.T + b
        pres.append(h)
        o = np.maximum(h, 0.0) if (l < n - 1 or relu_last) else h
    return o, pres, inputs


def _stack_backward(params: MlpParams, pres, inputs, d_out, relu_last: bool):
    """Gradients for a stack given upstream d_out; returns (MlpParams grads, d_input)."""
    n = len(params.weights)
    gws = [None] * n
    gbs = [None] * n
    d = d_out
    for l in range(n - 1, -1, -1):
        if l < n - 1 or relu_last:
            d = d * (pres[l] >= 0.0)
        gws[l] = d.T @ inputs[l]
        gbs[l] = d.sum(axis=0)
        d = d @ params.weights[l]
    return MlpParams(gws, gbs), d


def _upstream_batch(upstream, out, single):
    """The upstream gradient as a batch; a callable gets the network output."""
    if callable(upstream):
        upstream = upstream(out[0] if single else out)
    return _as_batch(upstream)[0]


def _gradients(grads, d_in, out, single) -> Gradients:
    if single:
        return Gradients(params=grads, input=d_in[0], output=out[0])
    return Gradients(params=grads, input=d_in, output=out)


def _pattern(pres):
    return np.concatenate([(h >= 0.0).astype(float) for h in pres], axis=-1)


# ---------------------------------------------------------------------------
# ReLU network


def forward_relu(params: MlpParams, x):
    """Returns (output, activation pattern over all hidden units)."""
    xb, single = _as_batch(x)
    o, pres, _ = _stack_forward(params, xb, relu_last=False)
    r = _pattern(pres[:-1]) if len(params.weights) > 1 else np.zeros((xb.shape[0], 0))
    if single:
        return o[0], r[0]
    return o, r


def linear_piece(params: MlpParams, pattern):
    """Coefficients (M, z) of the affine function the net computes on the
    piece with this activation pattern: output = M x + z."""
    dims = params.dims
    M = params.weights[0].copy()
    z = params.biases[0].copy()
    off = 0
    for l in range(1, len(params.weights)):
        r = np.asarray(pattern[off : off + dims[l]], dtype=float)
        off += dims[l]
        M = params.weights[l] @ (r[:, None] * M)
        z = params.weights[l] @ (r * z) + params.biases[l]
    return M, z


def backward_relu(params: MlpParams, x, upstream) -> Gradients:
    xb, single = _as_batch(x)
    o, pres, inputs = _stack_forward(params, xb, relu_last=False)
    ub = _upstream_batch(upstream, o, single)
    grads, d_in = _stack_backward(params, pres, inputs, ub, relu_last=False)
    return _gradients(grads, d_in, o, single)


# ---------------------------------------------------------------------------
# DeLU


def forward_delu(params: DeluParams, x):
    """Backbone output with the last-layer bias produced by the auxiliary net."""
    xb, single = _as_batch(x)
    bb = params.backbone
    o, pres, _ = _stack_forward(bb, xb, relu_last=False)
    r = _pattern(pres[:-1])
    bias, _, _ = _stack_forward(params.aux, r, relu_last=False)
    y = o - bb.biases[-1] + bias          # swap the dead static bias for the generated one
    return y[0] if single else y


def backward_delu(params: DeluParams, x, upstream) -> Gradients:
    xb, single = _as_batch(x)
    bb = params.backbone
    o, pres, inputs = _stack_forward(bb, xb, relu_last=False)
    r = _pattern(pres[:-1])
    bias, aux_pres, aux_inputs = _stack_forward(params.aux, r, relu_last=False)
    y = o - bb.biases[-1] + bias
    ub = _upstream_batch(upstream, y, single)

    bb_grads, d_in = _stack_backward(bb, pres, inputs, ub, relu_last=False)
    bb_grads.biases[-1] = np.zeros_like(bb.biases[-1])       # static bias is unused
    aux_grads, _ = _stack_backward(params.aux, aux_pres, aux_inputs, ub, relu_last=False)
    # pattern bits are locally constant: nothing flows from aux back to x
    return _gradients(DeluParams(bb_grads, aux_grads), d_in, y, single)


# ---------------------------------------------------------------------------
# DNL


def _split_flat(flat, higher_dims):
    """Per-sample weight/bias views of the hypernetwork output."""
    ws, bs = [], []
    off = 0
    for n_in, n_out in zip(higher_dims[:-1], higher_dims[1:]):
        ws.append(flat[:, off : off + n_out * n_in].reshape(-1, n_out, n_in))
        off += n_out * n_in
        bs.append(flat[:, off : off + n_out])
        off += n_out
    return ws, bs


def forward_dnl(params: DnlParams, x):
    """Returns (output, lower-stack activation pattern)."""
    xb, single = _as_batch(x)
    o, pres, _ = _stack_forward(params.lower, xb, relu_last=True)
    r = _pattern(pres)
    flat, _, _ = _stack_forward(params.hyper, r, relu_last=False)
    ws, bs = _split_flat(flat, params.higher_dims)
    n = len(ws)
    for l in range(n):
        h = np.einsum("boi,bi->bo", ws[l], o) + bs[l]
        o = np.maximum(h, 0.0) if l < n - 1 else h
    if single:
        return o[0], r[0]
    return o, r


def backward_dnl(params: DnlParams, x, upstream) -> Gradients:
    xb, single = _as_batch(x)
    o, pres, inputs = _stack_forward(params.lower, xb, relu_last=True)
    r = _pattern(pres)
    flat, hyper_pres, hyper_inputs = _stack_forward(params.hyper, r, relu_last=False)
    ws, bs = _split_flat(flat, params.higher_dims)

    n = len(ws)
    hs, os = [], [o]
    for l in range(n):
        h = np.einsum("boi,bi->bo", ws[l], os[-1]) + bs[l]
        hs.append(h)
        os.append(np.maximum(h, 0.0) if l < n - 1 else h)
    out = os[-1]

    # backward through the generated layers, collecting per-sample param grads
    d = _upstream_batch(upstream, out, single)
    d_flat_parts = []
    for l in range(n - 1, -1, -1):
        if l < n - 1:
            d = d * (hs[l] >= 0.0)
        gw = np.einsum("bo,bi->boi", d, os[l])
        gb = d
        d_flat_parts.append((gw.reshape(gw.shape[0], -1), gb))
        d = np.einsum("boi,bo->bi", ws[l], d)
    d_flat = np.concatenate([arr for gw, gb in reversed(d_flat_parts) for arr in (gw, gb)], axis=1)

    hyper_grads, _ = _stack_backward(params.hyper, hyper_pres, hyper_inputs, d_flat, relu_last=False)
    lower_grads, d_in = _stack_backward(params.lower, pres, inputs, d, relu_last=True)
    grads = DnlParams(lower_grads, hyper_grads, tuple(params.higher_dims))
    return _gradients(grads, d_in, out, single)


# ---------------------------------------------------------------------------
# unified entry points


def forward(params, x):
    """Output of any architecture (pattern dropped where one is produced)."""
    if isinstance(params, MlpParams):
        return forward_relu(params, x)[0]
    if isinstance(params, DeluParams):
        return forward_delu(params, x)
    if isinstance(params, DnlParams):
        return forward_dnl(params, x)[0]
    raise TypeError(f"unknown parameter container {type(params).__name__}")


def backward(params, x, upstream) -> Gradients:
    """Exact reverse-mode gradients; the activation pattern is held fixed.

    `upstream` is d(loss)/d(output), either as an array shaped like the
    output or as a function ``output -> d(loss)/d(output)``; the second form
    lets a training step take its prediction and its gradient from one
    forward pass.  The output is returned as ``Gradients.output``.
    """
    if isinstance(params, MlpParams):
        return backward_relu(params, x, upstream)
    if isinstance(params, DeluParams):
        return backward_delu(params, x, upstream)
    if isinstance(params, DnlParams):
        return backward_dnl(params, x, upstream)
    raise TypeError(f"unknown parameter container {type(params).__name__}")


def input_dim(params) -> int:
    if isinstance(params, MlpParams):
        return params.dims[0]
    if isinstance(params, DeluParams):
        return params.backbone.dims[0]
    if isinstance(params, DnlParams):
        return params.lower.dims[0]
    raise TypeError(f"unknown parameter container {type(params).__name__}")


# ---------------------------------------------------------------------------
# flattening and checkpoints


def _mlp_arrays(p: MlpParams):
    out = []
    for w, b in zip(p.weights, p.biases):
        out.append(w)
        out.append(b)
    return out


def param_arrays(params) -> list:
    if isinstance(params, MlpParams):
        return _mlp_arrays(params)
    if isinstance(params, DeluParams):
        return _mlp_arrays(params.backbone) + _mlp_arrays(params.aux)
    if isinstance(params, DnlParams):
        return _mlp_arrays(params.lower) + _mlp_arrays(params.hyper)
    raise TypeError(f"unknown parameter container {type(params).__name__}")


def flatten_params(params) -> np.ndarray:
    return np.concatenate([a.ravel() for a in param_arrays(params)])


def _mlp_views(p: MlpParams, flat, off):
    ws, bs = [], []
    for w, b in zip(p.weights, p.biases):
        ws.append(flat[off : off + w.size].reshape(w.shape))
        off += w.size
        bs.append(flat[off : off + b.size])
        off += b.size
    return MlpParams(ws, bs), off


def _param_views(template, flat: np.ndarray):
    """A container shaped like `template` whose arrays are views of `flat`,
    in `flatten_params` order: writing to `flat` updates the network."""
    size = sum(a.size for a in param_arrays(template))
    if flat.size != size:
        raise ValueError(f"flat vector has {flat.size} entries, template needs {size}")
    if isinstance(template, MlpParams):
        return _mlp_views(template, flat, 0)[0]
    if isinstance(template, DeluParams):
        backbone, off = _mlp_views(template.backbone, flat, 0)
        return DeluParams(backbone, _mlp_views(template.aux, flat, off)[0])
    lower, off = _mlp_views(template.lower, flat, 0)
    return DnlParams(lower, _mlp_views(template.hyper, flat, off)[0], tuple(template.higher_dims))


def unflatten_params(template, flat) -> object:
    """Parameters shaped like `template`, holding a copy of `flat`."""
    return _param_views(template, np.array(flat, dtype=float).ravel())


def _arch_spec(params) -> dict:
    if isinstance(params, MlpParams):
        return {"arch": "relu", "dims": params.dims}
    if isinstance(params, DeluParams):
        return {"arch": "delu", "dims": params.backbone.dims, "aux_dims": params.aux.dims}
    if isinstance(params, DnlParams):
        return {
            "arch": "dnl",
            "lower_dims": params.lower.dims,
            "hyper_dims": params.hyper.dims,
            "higher_dims": list(params.higher_dims),
        }
    raise TypeError(f"unknown parameter container {type(params).__name__}")


def _zeros_mlp(dims) -> MlpParams:
    return MlpParams(
        [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])],
        [np.zeros(o) for o in dims[1:]],
    )


def params_from_spec(spec: dict):
    arch = spec["arch"]
    if arch == "relu":
        return _zeros_mlp(spec["dims"])
    if arch == "delu":
        return DeluParams(_zeros_mlp(spec["dims"]), _zeros_mlp(spec["aux_dims"]))
    if arch == "dnl":
        return DnlParams(_zeros_mlp(spec["lower_dims"]), _zeros_mlp(spec["hyper_dims"]), tuple(spec["higher_dims"]))
    raise ValueError(f"unknown architecture {arch!r}")


CHECKPOINT_FORMAT = "persuade-checkpoint"
CHECKPOINT_VERSION = 1


def save_params(path, params) -> None:
    """Versioned checkpoint: architecture descriptor plus the flat parameter array."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        **_arch_spec(params),
        "params": flatten_params(params).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_params(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT or doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"not a version-{CHECKPOINT_VERSION} {CHECKPOINT_FORMAT} file")
    template = params_from_spec(doc)
    return unflatten_params(template, np.asarray(doc["params"], dtype=float))
