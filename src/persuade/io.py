"""File formats: game instances, policies, reports, sidecars, manifests.

Everything is JSON with full-precision floats (Python's shortest
round-tripping repr), so values written by the generators read back
bit-identically.  Matrices are stored as row-major flat lists next to
their dimensions.
A game file's optional `tie_rule` object is read by the class that
`game.TIE_RULES` maps its `kind` to; a rule that is malformed or does not
fit the game is a ValueError.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from . import __version__
from .game import TIE_RULES, GameInstance, TieRule
from .equilibria import EquilibriumReport
from .learning import sample_dataset

GAME_FORMAT = "persuade-game"
POLICY_FORMAT = "persuade-policy"
REPORT_FORMAT = "persuade-report"


def _dump(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load(path) -> dict:
    """The JSON object in the file at `path`; any other top-level value is a ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level, got {type(doc).__name__}")
    return doc


# ---------------------------------------------------------------------------
# tie rules


def tie_rule_from_dict(doc: dict) -> TieRule:
    """The rule of a game file's `tie_rule` object, read by the class its kind names."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in TIE_RULES:
        raise ValueError(f"unknown tie rule kind {kind!r}; expected one of {', '.join(TIE_RULES)}")
    return TIE_RULES[kind].from_dict(doc)


# ---------------------------------------------------------------------------
# games and policies


def write_game(path, game: GameInstance, tie: TieRule | None = None) -> None:
    doc = {
        "format": GAME_FORMAT,
        "n_senders": game.n_senders,
        "states": game.states,
        "signals": game.signals,
        "actions": game.actions,
        "prior": game.prior.tolist(),
        "receiver_utility": game.receiver_utility.ravel().tolist(),
        "sender_utilities": [u.ravel().tolist() for u in game.sender_utilities],
    }
    if tie is not None:
        doc["tie_rule"] = tie.to_dict()
    _dump(path, doc)


def _size(path, doc: dict, name: str) -> int:
    """The file's integer field `name`; an integral float, as JSON may write one, reads as an int."""
    value = doc[name]
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{path}: {name} must be an integer, got {value!r}")
    return value


def read_game(path) -> tuple[GameInstance, TieRule | None]:
    doc = _load(path)
    if doc.get("format") != GAME_FORMAT:
        raise ValueError(f"{path} is not a {GAME_FORMAT} file")
    # the stated sizes must fit the arrays: n_senders, states and actions here, the rest by GameInstance
    n_senders, states, actions, signals = (_size(path, doc, k) for k in ("n_senders", "states", "actions", "signals"))
    prior, utilities = doc["prior"], [doc["receiver_utility"], *doc["sender_utilities"]]
    if n_senders != len(utilities) - 1:
        raise ValueError(f"n_senders is {n_senders}, but the file has {len(utilities) - 1} sender utilities")
    for u in utilities:
        if len(u) != states * actions:
            # the prior's length is the game's state count, so it tells which size is off
            name, value = ("states", states) if states != len(prior) else ("actions", actions)
            raise ValueError(f"{path}: {name} is {value}, but a utility array has {len(u)} entries, "
                             f"not states x actions = {states} x {actions}")
    receiver, *senders = (np.asarray(u, dtype=float).reshape(states, actions) for u in utilities)
    game = GameInstance(signals=signals, prior=np.asarray(prior, dtype=float), receiver_utility=receiver,
                        sender_utilities=tuple(senders))
    tie = tie_rule_from_dict(doc["tie_rule"]) if "tie_rule" in doc else None
    if tie is not None:
        tie.check(game)
    return game, tie


def write_policies(path, policies) -> None:
    policies = np.asarray(policies, dtype=float)
    _dump(
        path,
        {
            "format": POLICY_FORMAT,
            "n_senders": policies.shape[0],
            "states": policies.shape[1],
            "signals": policies.shape[2],
            "policies": policies.ravel().tolist(),
        },
    )


def read_policies(path) -> np.ndarray:
    doc = _load(path)
    if doc.get("format") != POLICY_FORMAT:
        raise ValueError(f"{path} is not a {POLICY_FORMAT} file")
    shape = tuple(_size(path, doc, name) for name in ("n_senders", "states", "signals"))
    if len(doc["policies"]) != math.prod(shape):
        raise ValueError(f"{path}: policies has {len(doc['policies'])} entries, "
                         f"not n_senders x states x signals = {' x '.join(map(str, shape))}")
    return np.asarray(doc["policies"], dtype=float).reshape(shape)


# ---------------------------------------------------------------------------
# reports


def report_to_dict(report: EquilibriumReport) -> dict:
    doc = {
        "format": REPORT_FORMAT,
        "verdict": report.verdict,
        "utilities": np.asarray(report.utilities, dtype=float).tolist(),
        "max_improvement": float(report.max_improvement),
        "samples": int(report.samples),
        "eps": None if report.eps is None else float(report.eps),
        "witness_sender": report.witness_sender,
        "witness_policy": None
        if report.witness_policy is None
        else np.asarray(report.witness_policy, dtype=float).tolist(),
    }
    return doc


def report_from_dict(doc: dict) -> EquilibriumReport:
    if doc.get("format") != REPORT_FORMAT:
        raise ValueError(f"not a {REPORT_FORMAT} document")
    return EquilibriumReport(
        verdict=doc["verdict"],
        utilities=np.asarray(doc["utilities"], dtype=float),
        max_improvement=doc["max_improvement"],
        witness_sender=doc["witness_sender"],
        witness_policy=None if doc["witness_policy"] is None else np.asarray(doc["witness_policy"], dtype=float),
        samples=doc["samples"],
        eps=doc["eps"],
    )


def write_report(path, report: EquilibriumReport) -> None:
    _dump(path, report_to_dict(report))


def read_report(path) -> EquilibriumReport:
    return report_from_dict(_load(path))


# ---------------------------------------------------------------------------
# sidecars and manifests


def write_sidecar(path, payload: dict) -> None:
    _dump(path, {"format": "persuade-sidecar", **payload})


def write_manifest(path, command: str, args: dict, seed: int | None) -> None:
    """Enough to re-run the command bit-identically (modulo the timestamp)."""
    _dump(
        path,
        {
            "format": "persuade-manifest",
            "tool_version": __version__,
            "command": command,
            "args": {k: v for k, v in sorted(args.items())},
            "seed": seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    )


# ---------------------------------------------------------------------------
# dataset sampling


def load_or_sample_dataset(game: GameInstance, count: int, tie: TieRule, seed: int):
    """:func:`learning.sample_dataset`, under the name `persuade learn` calls it by.

    The name stays because the benchmark's tracer (`perfbench/bench_trace.py`)
    wraps it to time the learn command's labeling; it goes when that tracer does.
    """
    return sample_dataset(game, count, tie, seed)
