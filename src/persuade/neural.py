"""From-scratch differentiable approximators with exact manual gradients.

Three architectures, each a parameter container named by its ``arch``:

* ``relu`` (`MlpParams`) - plain ReLU MLP, continuous and piecewise linear;
* ``delu`` (`DeluParams`) - a ReLU hidden stack and a bias-free linear
  head, whose output bias an auxiliary net produces from the stack's
  activation pattern, so the function is piecewise linear but
  discontinuous across pattern boundaries;
* ``dnl`` (`DnlParams`) - the first K layers are an ordinary ReLU stack, and a hypernetwork
  maps their activation pattern to the weights and biases of the remaining
  layers, so each piece carries its own *nonlinear* sub-network and the
  function is discontinuous and piecewise nonlinear.

Each container class is the one place that knows its architecture: how
it is initialised, its arrays in flat order, how it is rebuilt from views
of a flat buffer, its checkpoint spec, and its forward pass, which returns
the output, the pre-activations whose signs are the activation pattern,
and what its backward pass needs.  `forward`, `forward_with_pattern` and
`backward` all run that one pass.  `init_params` is the one constructor:
it finds the class by its name, as checkpoints do, and holds the default
widths of the DeLU and DNL side networks.  Anything with the `_run` and
`_grads` methods is a network to `backward`.

A pre-activation of exactly zero counts as active (bit 1); gradients treat
the activation pattern as locally constant, i.e. they are the gradients of
the piece containing the input.  `forward`, `forward_with_pattern` and
`backward` take a ``(rows, inputs)`` batch; a single input is a batch of
one row.  `backward` also returns the network output, and takes the
upstream gradient as a function of that output, so a training step needs
one forward pass.

A *stack* of n networks of one architecture and shape is the same
container with a leading axis on every parameter array: weights
``(n, out, in)`` instead of ``(out, in)`` (`stack_params`,
`unstack_params`).  The same code runs both: every product is
``o @ w.swapaxes(-1, -2)`` over the leading axes, every bias gradient a sum
over the row axis, and DNL folds the leading axes into rows for its
per-sample generated layers.  A stack maps a shared ``(rows, in)`` input to
``(n, rows, out)`` outputs.  Numpy takes a stacked product slice by slice,
so each slice's results equal that network's own bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


# ---------------------------------------------------------------------------
# shared primitives


def _batch_input(x):
    """`x` as a float (rows, inputs) array; any other number of axes is an error."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"network input must be a (rows, inputs) batch, got shape {x.shape}")
    return x


def _stack_forward(params: MlpParams, x, relu_last: bool):
    """Forward through all layers; ReLU after each except (optionally) the last.

    Returns (output, pre-activations, layer inputs).  The bias is added in
    place: the same sums without a second output-sized array.
    """
    pres, inputs = [], []
    o = x
    n = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(o)
        h = o @ w.swapaxes(-1, -2)
        h += b[..., None, :]
        pres.append(h)
        o = np.maximum(h, 0.0) if (l < n - 1 or relu_last) else h
    return o, pres, inputs


def _stack_backward(params: MlpParams, pres, inputs, d_out, relu_last: bool, input_grad: bool):
    """Gradients for a stack given upstream d_out; returns (MlpParams grads,
    d_input), with d_input None unless `input_grad`."""
    n = len(params.weights)
    gws = [None] * n
    gbs = [None] * n
    d = d_out
    for l in range(n - 1, -1, -1):
        if l < n - 1 or relu_last:
            d = d * (pres[l] >= 0.0)
        gws[l] = d.swapaxes(-1, -2) @ inputs[l]
        gbs[l] = d.sum(axis=-2)
        if l or input_grad:
            d = d @ params.weights[l]
    return MlpParams(gws, gbs), d if input_grad else None


def _pattern(pres):
    """The layers' activation bits side by side: 1.0 where the pre-activation is >= 0."""
    return (np.concatenate(pres, axis=-1) >= 0.0).astype(float)


def _zeros_mlp(dims) -> MlpParams:
    return MlpParams(
        [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])],
        [np.zeros(o) for o in dims[1:]],
    )


def _init_layer(n_out, n_in, rng):
    bound = np.sqrt(1.0 / n_in)
    return rng.uniform(-bound, bound, size=(n_out, n_in)), rng.uniform(-bound, bound, size=n_out)


# ---------------------------------------------------------------------------
# ReLU network


@dataclass
class MlpParams:
    """Plain ReLU MLP: dense layers; the last layer is linear, earlier ones
    are ReLU.  Also the layer stack the other architectures are built from."""

    weights: list
    biases: list
    arch: ClassVar[str] = "relu"

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[-1]] + [w.shape[-2] for w in self.weights]

    @staticmethod
    def _init(dims, rng, **_):
        ws, bs = [], []
        for n_in, n_out in zip(dims[:-1], dims[1:]):
            w, b = _init_layer(n_out, n_in, rng)
            ws.append(w)
            bs.append(b)
        return MlpParams(ws, bs)

    @staticmethod
    def _template(spec):
        return _zeros_mlp(spec["dims"])

    def _spec(self):
        return {"dims": self.dims}

    def _arrays(self):
        return [a for layer in zip(self.weights, self.biases) for a in layer]

    def _rebuild(self, arrays):
        ws, bs = [], []
        for _ in self.weights:
            ws.append(next(arrays))
            bs.append(next(arrays))
        return MlpParams(ws, bs)

    def _run(self, x):
        out, pres, inputs = _stack_forward(self, x, relu_last=False)
        return out, pres[:-1], (pres, inputs)

    def _grads(self, cache, d, input_grad):
        pres, inputs = cache
        return _stack_backward(self, pres, inputs, d, False, input_grad)


# ---------------------------------------------------------------------------
# DeLU


@dataclass
class DeluParams:
    """ReLU hidden stack (ReLU-activated on its last layer, as in DNL's lower
    stack), a bias-free linear head, and an auxiliary net mapping the stack's
    activation pattern to the output bias."""

    hidden: MlpParams
    head: np.ndarray          # (outputs, last hidden width)
    aux: MlpParams
    arch: ClassVar[str] = "delu"

    @property
    def dims(self) -> list[int]:
        return self.hidden.dims + [self.head.shape[-2]]

    @staticmethod
    def _init(dims, rng, *, aux_hidden, **_):
        if len(dims) < 3:
            raise ValueError("DeLU needs at least one hidden layer")
        # an output bias is drawn and discarded, so the other draws keep their places in the stream
        backbone = MlpParams._init(dims, rng)
        hidden = MlpParams(backbone.weights[:-1], backbone.biases[:-1])
        aux = MlpParams._init([sum(dims[1:-1]), *aux_hidden, dims[-1]], rng)
        return DeluParams(hidden, backbone.weights[-1], aux)

    @staticmethod
    def _template(spec):
        dims = spec["dims"]
        return DeluParams(_zeros_mlp(dims[:-1]), np.zeros((dims[-1], dims[-2])), _zeros_mlp(spec["aux_dims"]))

    def _spec(self):
        return {"dims": self.dims, "aux_dims": self.aux.dims}

    def _arrays(self):
        return self.hidden._arrays() + [self.head] + self.aux._arrays()

    def _rebuild(self, arrays):
        return DeluParams(self.hidden._rebuild(arrays), next(arrays), self.aux._rebuild(arrays))

    def _run(self, x):
        h, pres, inputs = _stack_forward(self.hidden, x, relu_last=True)
        bias, aux_pres, aux_inputs = _stack_forward(self.aux, _pattern(pres), relu_last=False)
        out = h @ self.head.swapaxes(-1, -2)
        out += bias
        return out, pres, (pres, inputs, h, aux_pres, aux_inputs)

    def _grads(self, cache, d, input_grad):
        pres, inputs, h, aux_pres, aux_inputs = cache
        hidden, d_in = _stack_backward(self.hidden, pres, inputs, d @ self.head, True, input_grad)
        # pattern bits are locally constant: nothing flows from aux back to x
        aux, _ = _stack_backward(self.aux, aux_pres, aux_inputs, d, False, False)
        return DeluParams(hidden, d.swapaxes(-1, -2) @ h, aux), d_in


# ---------------------------------------------------------------------------
# DNL


@dataclass
class DnlParams:
    """K-layer ReLU stack, hypernetwork, and the generated part's layer dims.

    ``higher_dims = (n_K, ..., n_L, d_out)``: the hypernetwork output is the
    flattened weights and biases of the layers connecting those widths.
    """

    lower: MlpParams
    hyper: MlpParams
    higher_dims: tuple
    arch: ClassVar[str] = "dnl"

    @staticmethod
    def _init(dims, rng, *, lower_layers, hyper_hidden, **_):
        # the first `lower_layers` hidden layers form the lower stack, the rest are generated
        L = len(dims) - 2
        if not 1 <= lower_layers < L:
            raise ValueError("dnl needs at least one lower layer and two generated linear layers, so lower_layers "
                             f"must be at least 1 and below the hidden layer count {L}, got lower_layers {lower_layers}")
        lower_dims = dims[: lower_layers + 1]
        higher_dims = tuple(dims[lower_layers:])
        lower = MlpParams._init(lower_dims, rng)    # final layer of the stack is still ReLU-activated
        n_bits = sum(lower_dims[1:])
        n_flat = sum(a * b + a for a, b in zip(higher_dims[1:], higher_dims[:-1]))
        hyper = MlpParams._init([n_bits, *hyper_hidden, n_flat], rng)
        return DnlParams(lower, hyper, higher_dims)

    @staticmethod
    def _template(spec):
        return DnlParams(_zeros_mlp(spec["lower_dims"]), _zeros_mlp(spec["hyper_dims"]), tuple(spec["higher_dims"]))

    def _spec(self):
        return {"lower_dims": self.lower.dims, "hyper_dims": self.hyper.dims, "higher_dims": list(self.higher_dims)}

    def _arrays(self):
        return self.lower._arrays() + self.hyper._arrays()

    def _rebuild(self, arrays):
        return DnlParams(self.lower._rebuild(arrays), self.hyper._rebuild(arrays), self.higher_dims)

    def _run(self, x):
        o, pres, inputs = _stack_forward(self.lower, x, relu_last=True)
        flat, hyper_pres, hyper_inputs = _stack_forward(self.hyper, _pattern(pres), relu_last=False)
        # the generated layers are per sample: the leading axes fold into rows
        lead = flat.shape[:-1]
        ws, bs = _split_flat(flat.reshape(-1, flat.shape[-1]), self.higher_dims)
        n = len(ws)
        hs, os = [], [o.reshape(-1, o.shape[-1])]
        for l in range(n):
            h = np.einsum("boi,bi->bo", ws[l], os[-1])
            h += bs[l]
            hs.append(h)
            os.append(np.maximum(h, 0.0) if l < n - 1 else h)
        out = os[-1].reshape(*lead, -1)
        return out, pres, (pres, inputs, hyper_pres, hyper_inputs, ws, hs, os)

    def _grads(self, cache, d, input_grad):
        pres, inputs, hyper_pres, hyper_inputs, ws, hs, os = cache
        lead = hyper_pres[-1].shape[:-1]
        # backward through the generated layers, writing the per-sample param
        # grads into one buffer laid out as the hypernetwork output
        d = d.reshape(-1, d.shape[-1])
        d_flat = np.empty((len(d), hyper_pres[-1].shape[-1]))
        gws, gbs = _split_flat(d_flat, self.higher_dims)
        n = len(ws)
        for l in range(n - 1, -1, -1):
            if l < n - 1:
                d = d * (hs[l] >= 0.0)
            np.einsum("bo,bi->boi", d, os[l], out=gws[l])
            gbs[l][...] = d
            d = np.einsum("boi,bo->bi", ws[l], d)
        hyper, _ = _stack_backward(self.hyper, hyper_pres, hyper_inputs, d_flat.reshape(*lead, -1), False, False)
        lower, d_in = _stack_backward(self.lower, pres, inputs, d.reshape(*lead, -1), True, input_grad)
        return DnlParams(lower, hyper, self.higher_dims), d_in


def _split_flat(flat, higher_dims):
    """Per-sample weight/bias views of a (rows, hypernetwork outputs) array."""
    ws, bs = [], []
    off = 0
    for n_in, n_out in zip(higher_dims[:-1], higher_dims[1:]):
        ws.append(flat[:, off : off + n_out * n_in].reshape(-1, n_out, n_in))
        off += n_out * n_in
        bs.append(flat[:, off : off + n_out])
        off += n_out
    return ws, bs


# ---------------------------------------------------------------------------
# entry points over all three architectures

_ARCHITECTURES = {cls.arch: cls for cls in (MlpParams, DeluParams, DnlParams)}


def _architecture(name):
    if name not in _ARCHITECTURES:
        raise ValueError(f"unknown architecture {name!r}; expected relu, delu, or dnl")
    return _ARCHITECTURES[name]


def init_params(arch: str, dims, rng, *, lower_layers=1, hyper_hidden=(32, 32), aux_hidden=(32, 32)):
    """Fresh parameters of the architecture named `arch`.

    ``dims = [input, hidden..., output]``.  `lower_layers` is the number of
    DNL's hidden layers that form its lower stack, `hyper_hidden` the hidden
    widths of its hypernetwork, and `aux_hidden` those of DeLU's auxiliary
    (output-bias) net; each architecture reads the keywords it uses.  Every
    width must be at least 1.
    """
    for name, widths in (("dims", dims), ("hyper_hidden", hyper_hidden), ("aux_hidden", aux_hidden)):
        if any(w < 1 for w in widths):
            raise ValueError(f"layer widths must be at least 1, got {name} {list(widths)}")
    return _architecture(arch)._init(
        dims, rng, lower_layers=lower_layers, hyper_hidden=hyper_hidden, aux_hidden=aux_hidden
    )


@dataclass
class Gradients:
    """Parameter gradients (same container type and shapes as the
    differentiated parameters), the input gradient (None when not asked
    for), and the network output of the forward pass they came from."""

    params: MlpParams | DeluParams | DnlParams
    input: np.ndarray | None
    output: np.ndarray


def forward_with_pattern(params, x):
    """(output, activation pattern) of any architecture at the (rows, inputs) batch `x`: the
    pattern covers all hidden units of a ReLU net and the hidden or lower stack of a DeLU or
    DNL net, one row per input row.  Only here is the pattern formed from the pass's
    pre-activations: `forward` and a training step never read it."""
    out, gates, _ = params._run(_batch_input(x))
    pattern = _pattern(gates) if gates else np.zeros((*out.shape[:-1], 0))
    return out, pattern


def forward(params, x):
    """Output of any architecture at the (rows, inputs) batch `x`."""
    return params._run(_batch_input(x))[0]


def backward(params, x, upstream, *, input_grad: bool = True) -> Gradients:
    """Exact reverse-mode gradients at the (rows, inputs) batch `x`; the activation pattern
    is held fixed.

    `upstream` is a function ``output -> d(loss)/d(output)``, so a training step takes its
    prediction and its gradient from one forward pass.  The output is returned as
    ``Gradients.output``.  With ``input_grad=False`` the input gradient is not computed
    (training discards it).
    """
    out, _, cache = params._run(_batch_input(x))
    grads, d_in = params._grads(cache, np.asarray(upstream(out), dtype=float), input_grad)
    return Gradients(params=grads, input=d_in, output=out)


# ---------------------------------------------------------------------------
# flattening and checkpoints


def param_arrays(params) -> list:
    """The parameter arrays in flat order; the first is the input layer's weights."""
    return params._arrays()


def input_dim(params) -> int:
    return param_arrays(params)[0].shape[-1]


def stack_params(nets):
    """One network of the architecture and shapes of `nets` whose every
    parameter array holds theirs along a new leading axis, net j in slice j."""
    return nets[0]._rebuild(iter([np.stack(group) for group in zip(*map(param_arrays, nets))]))


def unstack_params(stack) -> list:
    """The networks of a stack, each a view of its slice."""
    arrays = param_arrays(stack)
    return [stack._rebuild(a[j] for a in arrays) for j in range(len(arrays[0]))]


def flatten_params(params) -> np.ndarray:
    return np.concatenate([a.ravel() for a in param_arrays(params)])


def _param_views(template, flat: np.ndarray):
    """A container shaped like `template` whose arrays are views of `flat`,
    in `flatten_params` order: writing to `flat` updates the network."""
    arrays = param_arrays(template)
    size = sum(a.size for a in arrays)
    if flat.size != size:
        raise ValueError(f"flat vector has {flat.size} entries, template needs {size}")
    ends = np.cumsum([a.size for a in arrays])
    return template._rebuild(flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends))


def unflatten_params(template, flat) -> object:
    """Parameters shaped like `template`, holding a copy of `flat`."""
    return _param_views(template, np.array(flat, dtype=float).ravel())


CHECKPOINT_FORMAT = "persuade-checkpoint"
CHECKPOINT_VERSION = 2


def save_params(path, params) -> None:
    """Versioned checkpoint: the architecture's name and spec plus the
    parameters as one array in `flatten_params` order."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": params.arch,
        **params._spec(),
        "params": flatten_params(params).tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_params(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{CHECKPOINT_FORMAT} version {doc.get('version')!r} found, version {CHECKPOINT_VERSION} expected"
        )
    template = _architecture(doc.get("arch"))._template(doc)
    return unflatten_params(template, np.asarray(doc["params"], dtype=float))
