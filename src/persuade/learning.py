"""Learning pipeline: sampled utility datasets, MSE training with Adam,
extra-gradient search over policy logits, and the end-to-end local-
equilibrium finder.

The pipeline approximates each sender's ex-ante utility with a network
over the flattened joint policy, runs two-step extra-gradient updates on
softmax-parameterized policies against the learned networks, and then
verifies every candidate against the *true* game - the networks never
touch the reported utilities.  All restarts ascend together as one
(restarts, n, states, signals) logit array, so each half-step is one
batched `backward` call per sender, and their true utilities come from one
`ex_ante_utilities_batch` call.

`VAL_FRACTION` (held out for the validation MSE) and `MSE_CHUNK` (rows per
:func:`mse` pass) are module constants, read when a function runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibria import DEFAULT_LOCAL_EPS, EPSILON_LOCAL, EquilibriumReport, check_local_eps, local_ne_verify
from .game import GameInstance, TieRule, ex_ante_utilities_batch
from .neural import _param_views, backward, flatten_params, forward, init_params, input_dim
from .rng import substream

DIVERGENCE_GUARD = 1e6
VAL_FRACTION = 0.1
MSE_CHUNK = 8192


class TrainingDiverged(RuntimeError):
    """An epoch's training loss was non-finite or above `DIVERGENCE_GUARD`."""


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not self.learning_rate > 0:
            raise ValueError("epochs, batch size, and learning rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and self.eps_adam > 0):
            raise ValueError("bad Adam constants")


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
    seed: int
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
    draws = rng.exponential(1.0, size=(count, game.n_senders, game.states, game.signals))
    draws /= draws.sum(axis=3, keepdims=True)
    labels = ex_ante_utilities_batch(game, draws, tie)
    return UtilityDataset(
        inputs=draws.reshape(count, -1), utilities=labels, seed=seed, game=game
    )


def split_dataset(dataset: UtilityDataset, val_fraction: float, seed: int):
    """Deterministic train/validation split; returns (train, val) datasets."""
    m = len(dataset)
    n_val = int(round(m * val_fraction))
    perm = substream(seed, "split").permutation(m)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    mk = lambda idx: UtilityDataset(
        inputs=dataset.inputs[idx], utilities=dataset.utilities[idx], seed=dataset.seed, game=dataset.game
    )
    return mk(train_idx), mk(val_idx)


def mse(params, X, y) -> float:
    """Mean squared error of the network over (X, y)."""
    y = np.asarray(y, dtype=float).reshape(X.shape[0], -1)
    total = 0.0
    for i in range(0, X.shape[0], MSE_CHUNK):
        pred = np.atleast_2d(forward(params, X[i : i + MSE_CHUNK]))
        total += float(np.sum((pred - y[i : i + MSE_CHUNK]) ** 2))
    return total / y.size


def train(params, dataset: UtilityDataset, cfg: TrainConfig, *, sender: int):
    """Minibatch Adam on the MSE loss; returns (trained params, per-epoch loss).

    The scalar-output network fits the utility column of `sender`.
    Deterministic given ``cfg.seed``.  Aborts if the epoch loss exceeds 1e6.

    The parameters are trained in place in one flat buffer: the network is
    bound once to views of it, and each step takes its prediction and its
    gradient from one `backward` call, then updates the buffer and the Adam
    moments in place.  The caller's `params` are copied first and never
    modified; the returned parameters are views of the trained buffer.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    X = dataset.inputs
    if X.shape[1] != input_dim(params):
        raise ValueError(f"network input dim {input_dim(params)} != dataset dim {X.shape[1]}")
    y = dataset.utilities[:, [sender]]

    flat = flatten_params(params)
    current = _param_views(params, flat)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    t = 0
    losses = []
    for epoch in range(cfg.epochs):
        perm = substream(cfg.seed, f"shuffle:{epoch}").permutation(len(dataset))
        epoch_sq = 0.0
        for start in range(0, len(dataset), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = X[idx], y[idx]
            step = backward(current, xb, lambda pred: 2.0 * (pred - yb) / pred.size)
            epoch_sq += float(np.sum((step.output - yb) ** 2))
            grad = flatten_params(step.params)
            t += 1
            m *= cfg.beta1
            m += (1 - cfg.beta1) * grad
            v *= cfg.beta2
            v += (1 - cfg.beta2) * grad**2
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            flat -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps_adam)
        loss = epoch_sq / y.size
        losses.append(loss)
        if not np.isfinite(loss) or loss > DIVERGENCE_GUARD:
            raise TrainingDiverged(
                f"training diverged at epoch {epoch}: loss {loss:.3g} "
                f"(lr {cfg.learning_rate}, batch {cfg.batch_size})"
            )
    return current, losses


# ---------------------------------------------------------------------------
# extra-gradient on learned surrogates


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _ascent_direction(nets, logits):
    """d(net_j)/d(logits_j) through the row softmax, for every sender and
    every joint policy of a (..., n, states, signals) logit array."""
    policies = softmax_rows(logits)
    x = policies.reshape(-1, np.prod(logits.shape[-3:]))
    ones = np.ones((len(x), 1))
    direction = np.empty_like(logits)
    for j, net in enumerate(nets):
        g = backward(net, x, ones).input.reshape(logits.shape)[..., j, :, :]
        pj = policies[..., j, :, :]
        direction[..., j, :, :] = pj * (g - np.sum(g * pj, axis=-1, keepdims=True))
    if not np.all(np.isfinite(direction)):
        raise RuntimeError("non-finite surrogate gradient during extra-gradient updates")
    return direction


def extragradient(nets, init_logits: np.ndarray, cfg: EgConfig) -> np.ndarray:
    """Two-step extra-gradient ascent on softmax-parameterized policies.

    `nets[j]` is sender j's scalar network over the flattened joint policy,
    and `init_logits` is (..., n, states, signals): each joint policy along
    the leading axes is one independent ascent, and all of them step
    together.  Each sender's logits follow its own network's gradient:
    first an extrapolation step, then the actual update evaluated at the
    extrapolated point.  Returns the final softmax policies, shaped like
    `init_logits`.
    """
    logits = np.asarray(init_logits, dtype=float).copy()
    if logits.ndim < 3 or len(nets) != logits.shape[-3]:
        raise ValueError("need one network per sender")
    for _ in range(cfg.steps):
        half = logits + cfg.learning_rate * _ascent_direction(nets, logits)
        logits = logits + cfg.learning_rate * _ascent_direction(nets, half)
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
    nets: list = field(repr=False)        # per sender, the trained network
    losses: list = field(repr=False)      # per sender, the per-epoch training losses


def find_local_ne(
    game: GameInstance,
    train_cfg: TrainConfig,
    eg_cfg: EgConfig,
    tie: TieRule,
    *,
    dataset: UtilityDataset,
    eps: float = DEFAULT_LOCAL_EPS,
    arch: str = "dnl",
    hidden=(64, 64, 64),
    **arch_kwargs,
) -> PipelineResult:
    """Train one surrogate per sender on `dataset`, restart extra-gradient, verify.

    Each sender's network is ``init_params(arch, [inputs, *hidden, 1], ...,
    **arch_kwargs)``.  The restarts start from standard normal logits and
    ascend together in one :func:`extragradient` call, so memory grows
    with ``eg_cfg.restarts``.

    Candidates are ranked by social welfare (sum of true sender utilities,
    ties broken by restart index) and verified in that order against the
    true game with :func:`local_ne_verify`; the first verified candidate
    wins.  If none verifies, the best-welfare candidate is returned with
    ``verified=False`` and its refuting report.
    """
    check_local_eps(eps)
    train_split, val_split = split_dataset(dataset, VAL_FRACTION, train_cfg.seed)

    shape = (game.n_senders, game.states, game.signals)
    dims = [game.n_senders * game.states * game.signals, *hidden, 1]
    nets = []
    losses = []
    val_mse = 0.0
    for j in range(game.n_senders):
        params = init_params(arch, dims, substream(train_cfg.seed, f"init:sender:{j}"), **arch_kwargs)
        params, curve = train(params, train_split, train_cfg, sender=j)
        losses.append(curve)
        if len(val_split):
            val_mse += mse(params, val_split.inputs, val_split.utilities[:, [j]])
        nets.append(params)
    val_mse /= game.n_senders

    inits = np.stack(
        [substream(eg_cfg.seed, f"init:restart:{r}").normal(size=shape) for r in range(eg_cfg.restarts)]
    )
    policies = extragradient(nets, inits, eg_cfg)
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
        nets=nets,
        losses=losses,
    )
