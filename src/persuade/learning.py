"""Learning pipeline: sampled utility datasets, MSE training with Adam,
extra-gradient search over policy logits, and the end-to-end local-
equilibrium finder.

The pipeline approximates each sender's ex-ante utility with a network
over the flattened joint policy, runs two-step extra-gradient updates on
softmax-parameterized policies against the learned networks, and then
verifies every candidate against the *true* game - the networks never
touch the reported utilities.  The senders' networks form one stack
(`neural.stack_params`): they train together, one `backward` call per
minibatch for all senders, and each comes out bit for bit as if trained
alone.  All restarts ascend together as one (restarts, n, states, signals)
logit array, so each half-step is one `backward` call on the stack, and
their true utilities come from one `ex_ante_utilities_batch` call.

`VAL_FRACTION` (held out for the validation MSE by :func:`split_dataset`),
`MSE_CHUNK` (rows per :func:`mse` pass) and Adam's `BETA1`, `BETA2` and
`EPS_ADAM` (used by :func:`train`) are module constants, read when a
function runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibria import DEFAULT_LOCAL_EPS, EPSILON_LOCAL, EquilibriumReport, check_local_eps, local_ne_verify
from .game import GameInstance, TieRule, _sum_last, ex_ante_utilities_batch
from .neural import (
    _param_views, backward, flatten_params, forward, init_params, input_dim, param_arrays, stack_params, unstack_params,
)
from .rng import substream

DIVERGENCE_GUARD = 1e6
VAL_FRACTION = 0.1
MSE_CHUNK = 8192
BETA1 = 0.9
BETA2 = 0.999
EPS_ADAM = 1e-8


class TrainingDiverged(RuntimeError):
    """A sender's epoch training loss was non-finite or above `DIVERGENCE_GUARD`;
    the message names the epoch and the sender."""


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not self.learning_rate > 0:
            raise ValueError("epochs, batch size, and learning rate must be positive")


@dataclass
class EgConfig:
    steps: int = 20
    learning_rate: float = 0.1
    restarts: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1 or not self.learning_rate > 0:
            raise ValueError("steps, restarts, and learning rate must be positive")


@dataclass
class UtilityDataset:
    """Sampled (flattened joint policy, per-sender ex-ante utility) pairs."""

    inputs: np.ndarray        # (M, n * states * signals)
    utilities: np.ndarray     # (M, n_senders)
    game: GameInstance = field(repr=False)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def policies(self) -> np.ndarray:
        g = self.game
        return self.inputs.reshape(-1, g.n_senders, g.states, g.signals)


def sample_dataset(game: GameInstance, count: int, tie: TieRule, seed: int) -> UtilityDataset:
    """Uniformly sampled joint policies labeled with exact ex-ante utilities.

    Rows are flat-Dirichlet draws (normalized unit exponentials), so every
    row-stochastic matrix is equally likely.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = substream(seed, "dataset")
    draws = rng.standard_exponential(size=(count, game.n_senders, game.states, game.signals))
    draws /= _sum_last(draws)[..., None]
    labels = ex_ante_utilities_batch(game, draws, tie)
    return UtilityDataset(inputs=draws.reshape(count, -1), utilities=labels, game=game)


def split_dataset(dataset: UtilityDataset, seed: int):
    """Deterministic train/validation split, `VAL_FRACTION` held out; returns (train, val) datasets."""
    m = len(dataset)
    n_val = int(round(m * VAL_FRACTION))
    perm = substream(seed, "split").permutation(m)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    mk = lambda idx: UtilityDataset(
        inputs=dataset.inputs[idx], utilities=dataset.utilities[idx], game=dataset.game
    )
    return mk(train_idx), mk(val_idx)


def mse(params, X, y):
    """Mean squared error of the network over (X, y).  For a stack of n
    networks (`neural.stack_params`), y has n columns and the result is the
    n errors, network j's against column j."""
    y = np.asarray(y, dtype=float).reshape(X.shape[0], -1)
    total = 0.0
    for i in range(0, X.shape[0], MSE_CHUNK):
        pred = forward(params, X[i : i + MSE_CHUNK])
        sq = (pred - y[i : i + MSE_CHUNK].T[..., None].reshape(pred.shape)) ** 2
        total = total + sq.reshape(*pred.shape[:-2], -1).sum(axis=-1)
    return total / X.shape[0]


def train(stack, dataset: UtilityDataset, cfg: TrainConfig):
    """Minibatch Adam on the MSE loss; returns (trained stack, per-network
    per-epoch losses).

    `stack` holds one scalar-output network per sender along the leading
    axis of its parameter arrays (`neural.stack_params`); slice j fits
    utility column j.  Every slice sees the same shuffles, so each minibatch
    is one `backward` call for all of them.  Slices never mix: each product
    is taken slice by slice and Adam is elementwise, so slice j is trained
    bit for bit as network j would be alone.  Deterministic given
    ``cfg.seed``.  Raises `TrainingDiverged` at the first epoch in which a
    network's loss is non-finite or above `DIVERGENCE_GUARD`.

    The parameters are trained in place in one flat buffer: the stack is
    bound once to views of it, and each step takes its predictions and its
    gradients from one `backward` call, then updates the buffer and the Adam
    moments in place.  The caller's `stack` is copied first and never
    modified; the returned stack is views of the trained buffer.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    X = dataset.inputs
    if X.shape[1] != input_dim(stack):
        raise ValueError(f"network input dim {input_dim(stack)} != dataset dim {X.shape[1]}")
    first = param_arrays(stack)[0]
    if first.ndim != 3:
        raise ValueError("train takes a stack of networks (neural.stack_params)")
    n = len(first)
    if n != dataset.utilities.shape[1]:
        raise ValueError(f"stack of {n} networks for {dataset.utilities.shape[1]} utility columns")
    y = np.ascontiguousarray(dataset.utilities.T)[..., None]     # (n, M, 1)

    flat = flatten_params(stack)
    current = _param_views(stack, flat)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    t = 0
    losses = [[] for _ in range(n)]
    for epoch in range(cfg.epochs):
        perm = substream(cfg.seed, f"shuffle:{epoch}").permutation(len(dataset))
        epoch_sq = np.zeros(n)
        for start in range(0, len(dataset), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = X[idx], y[:, idx]
            step = backward(current, xb, lambda pred: 2.0 * (pred - yb) / len(idx), input_grad=False)
            epoch_sq += ((step.output - yb) ** 2).reshape(n, -1).sum(axis=-1)
            grad = flatten_params(step.params)
            t += 1
            m *= BETA1
            m += (1 - BETA1) * grad
            v *= BETA2
            v += (1 - BETA2) * grad**2
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            flat -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPS_ADAM)
        loss = epoch_sq / len(dataset)
        for curve, value in zip(losses, loss.tolist()):
            curve.append(value)
        diverged = ~np.isfinite(loss) | (loss > DIVERGENCE_GUARD)
        if diverged.any():
            j = int(np.argmax(diverged))
            raise TrainingDiverged(
                f"training diverged at epoch {epoch}, sender {j}: loss {loss[j]:.3g} "
                f"(lr {cfg.learning_rate}, batch {cfg.batch_size})"
            )
    return current, losses


# ---------------------------------------------------------------------------
# extra-gradient on learned surrogates


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _ascent_direction(stack, logits):
    """d(net_j)/d(logits_j) through the row softmax, for every sender and
    every joint policy of a (..., n, states, signals) logit array: one
    `backward` call on the stack gives every network's input gradient."""
    policies = softmax_rows(logits)
    n = logits.shape[-3]
    x = policies.reshape(-1, np.prod(logits.shape[-3:]))
    g = backward(stack, x, np.ones_like).input
    if len(g) != n:
        raise ValueError("need one network per sender")
    g = g.reshape(n, *logits.shape)
    direction = np.empty_like(logits)
    for j in range(n):
        gj = g[j][..., j, :, :]
        pj = policies[..., j, :, :]
        direction[..., j, :, :] = pj * (gj - np.sum(gj * pj, axis=-1, keepdims=True))
    if not np.all(np.isfinite(direction)):
        raise RuntimeError("non-finite surrogate gradient during extra-gradient updates")
    return direction


def extragradient(stack, init_logits: np.ndarray, cfg: EgConfig) -> np.ndarray:
    """Two-step extra-gradient ascent on softmax-parameterized policies.

    Slice j of `stack` is sender j's scalar network over the flattened joint
    policy, and `init_logits` is (..., n, states, signals): each joint
    policy along the leading axes is one independent ascent, and all of
    them step together.  Each sender's logits follow its own network's
    gradient: first an extrapolation step, then the actual update evaluated
    at the extrapolated point.  Returns the final softmax policies, shaped
    like `init_logits`.
    """
    logits = np.asarray(init_logits, dtype=float).copy()
    if logits.ndim < 3:
        raise ValueError("need (..., n, states, signals) logits")
    for _ in range(cfg.steps):
        half = logits + cfg.learning_rate * _ascent_direction(stack, logits)
        logits = logits + cfg.learning_rate * _ascent_direction(stack, half)
    return softmax_rows(logits)


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass
class RestartOutcome:
    restart: int
    welfare: float
    utilities: np.ndarray
    verified: bool | None         # None = not checked (a better candidate verified first)
    policy: np.ndarray = field(repr=False)


@dataclass
class PipelineResult:
    report: EquilibriumReport
    policy: np.ndarray
    verified: bool
    restarts: list
    validation_mse: float
    nets: list = field(repr=False)        # per sender, the trained network (a view of its stack slice)
    losses: list = field(repr=False)      # per sender, the per-epoch training losses


def init_surrogate(game: GameInstance, arch: str, rng, *, hidden=(64, 64, 64), **arch_kwargs):
    """A fresh surrogate of one sender's utility: ``init_params(arch, [inputs,
    *hidden, 1], rng, **arch_kwargs)``, its inputs the flattened joint policy."""
    return init_params(arch, [game.n_senders * game.states * game.signals, *hidden, 1], rng, **arch_kwargs)


def find_local_ne(
    game: GameInstance,
    train_cfg: TrainConfig,
    eg_cfg: EgConfig,
    tie: TieRule,
    *,
    dataset: UtilityDataset,
    eps: float = DEFAULT_LOCAL_EPS,
    arch: str = "dnl",
    **arch_kwargs,
) -> PipelineResult:
    """Train one surrogate per sender on `dataset`, restart extra-gradient, verify.

    Each sender's network is ``init_surrogate(game, arch, ..., **arch_kwargs)``
    from its own ``init:sender:{j}`` stream; the networks train as one stack
    in one :func:`train` call.  The restarts start from
    standard normal logits and ascend together in one :func:`extragradient`
    call, so memory grows with ``eg_cfg.restarts``.

    Candidates are ranked by social welfare (sum of true sender utilities,
    ties broken by restart index) and verified in that order against the
    true game with :func:`local_ne_verify`; the first verified candidate
    wins.  If none verifies, the best-welfare candidate is returned with
    ``verified=False`` and its refuting report.
    """
    check_local_eps(eps)
    train_split, val_split = split_dataset(dataset, train_cfg.seed)

    shape = (game.n_senders, game.states, game.signals)
    stack = stack_params(
        [init_surrogate(game, arch, substream(train_cfg.seed, f"init:sender:{j}"), **arch_kwargs)
         for j in range(game.n_senders)]
    )
    stack, losses = train(stack, train_split, train_cfg)
    val_mse = 0.0
    if len(val_split):
        for err in mse(stack, val_split.inputs, val_split.utilities).tolist():
            val_mse += err
    val_mse /= game.n_senders

    inits = np.stack(
        [substream(eg_cfg.seed, f"init:restart:{r}").normal(size=shape) for r in range(eg_cfg.restarts)]
    )
    policies = extragradient(stack, inits, eg_cfg)
    outcomes = [
        RestartOutcome(restart=r, welfare=float(utilities.sum()), utilities=utilities, verified=None, policy=policy)
        for r, (policy, utilities) in enumerate(zip(policies, ex_ante_utilities_batch(game, policies, tie)))
    ]

    order = sorted(outcomes, key=lambda o: (-o.welfare, o.restart))
    chosen_report = None
    chosen = None
    for outcome in order:
        report = local_ne_verify(game, outcome.policy, tie, eps, eg_cfg.seed)
        outcome.verified = report.verdict == EPSILON_LOCAL
        if chosen_report is None:
            chosen_report, chosen = report, outcome     # best welfare, possibly refuted
        if outcome.verified:
            chosen_report, chosen = report, outcome
            break

    return PipelineResult(
        report=chosen_report,
        policy=chosen.policy,
        verified=bool(chosen.verified),
        restarts=outcomes,
        validation_mse=val_mse,
        nets=unstack_params(stack),
        losses=losses,
    )
