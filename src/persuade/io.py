"""File formats: game instances, policies, reports, sidecars, manifests.

Everything is JSON with full-precision floats (Python's shortest
round-tripping repr), so values written by the generators read back
bit-identically.  Matrices are stored as row-major flat lists next to
their dimensions.
This module types every JSON input, the learn configs and `reduce` sources
too: the helpers `_field` to `_numbers` below are the one place a value's
type is checked, and each error is a ValueError that starts with the
file's path and names the field (``train.epochs``, ``sender_utilities[1]``).
A game file's optional `tie_rule` object is read as the class that
`game.TIE_RULES` maps its `kind` to; a rule that is malformed, holds a key
its kind does not take, or does not fit the game is a ValueError.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .game import TIE_RULES, FixedMap, GameInstance, TieRule
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
    """The JSON object in the file at `path`; text that is not JSON, or any other top-level
    value, is a ValueError naming the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level, got {type(doc).__name__}")
    return doc


_JSON_KINDS = {list: "a list", dict: "an object", str: "a string", bool: "true or false"}


def _typed(path, value, name: str, kind: type):
    """`value`, the field `name` of the file at `path`, if it is a `kind` (list, dict, str or
    bool); else a ValueError naming the file and the field."""
    if not isinstance(value, kind):
        raise ValueError(f"{path}: {name} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _field(path, doc: dict, name: str, kind: type | None = None, where: str = ""):
    """Field `name` of the object `doc` read from `path`, typed by `_typed` if `kind` is
    given; `where` is the object's place in the file (``rows[0].``).  A missing field is a
    ValueError naming the file and the field."""
    if name not in doc:
        raise ValueError(f"{path}: missing field {where}{name}")
    return doc[name] if kind is None else _typed(path, doc[name], where + name, kind)


def _reject_unknown(path, doc: dict, known, where: str) -> None:
    """A ValueError naming the file and each field of the object `doc` (at `where`, ``train.``)
    that is not one of `known`."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"{path}: unknown field {', '.join(where + name for name in unknown)}")


def _choice(path, value, name: str, choices):
    """`value`, the field `name`, if it is a string among `choices`."""
    if _typed(path, value, name, str) not in choices:
        raise ValueError(f"{path}: {name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _integer(path, value, name: str, least: int) -> int:
    """The field `name` as an int of at least `least`: an int, or a float with an integral
    value, as JSON may write a count; never a bool."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if not isinstance(number, int) or isinstance(number, bool) or number < least:
        raise ValueError(f"{path}: {name} must be an integer of at least {least}, got {value!r}")
    return number


def _real(path, value, name: str) -> float:
    """The field `name` as a float: a finite int or float; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{path}: {name} must be a finite number, got {value!r}")
    return float(value)


def _numbers(path, value, name: str) -> np.ndarray:
    """The list field `name` as a float array: ints and floats, or lists of them nested to one
    shape (a matrix); never bools, strings or nulls, which numpy would convert."""
    _typed(path, value, name, list)
    try:
        array = np.array(value, dtype=float)
        leaves = value
        for _ in range(array.ndim - 1):
            leaves = [x for row in leaves for x in row]
        if {type(x) for x in leaves} <= {int, float}:
            return array
    except (ValueError, TypeError, OverflowError):
        pass
    for where, x in _leaves(value, name):
        if type(x) not in (int, float):
            raise ValueError(f"{path}: {where} must be a number, got {x!r}")
        if not abs(x) <= sys.float_info.max and type(x) is int:
            raise ValueError(f"{path}: {where} must be a number within the float range, got {x!r}")
    raise ValueError(f"{path}: {name} must be a list of numbers or of lists nested to one shape, got {value!r}")


def _leaves(value: list, where: str):
    """``(place, entry)`` for each entry of the nested list `value` that is not a list, in order."""
    for i, x in enumerate(value):
        if isinstance(x, list):
            yield from _leaves(x, f"{where}[{i}]")
        else:
            yield f"{where}[{i}]", x


@contextlib.contextmanager
def _naming(path):
    """Prefix a ValueError raised inside, where the model's own checks (which know values, not
    files) refuse the values read from the file at `path`, with that path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# tie rules


def tie_rule_from_dict(path, doc) -> TieRule:
    """The rule of the `tie_rule` object `doc` of the game file at `path`, of the class its kind
    names; a key other than `kind` and the class's fields is an error.  A fixed map's `table`
    holds integer actions."""
    kind = _choice(path, _field(path, _typed(path, doc, "tie_rule", dict), "kind", where="tie_rule."),
                   "tie_rule.kind", TIE_RULES)
    rule = TIE_RULES[kind]
    _reject_unknown(path, doc, ("kind", *(f.name for f in dataclasses.fields(rule))), "tie_rule.")
    if rule is not FixedMap:
        return rule()
    table = _numbers(path, _field(path, doc, "table", where="tie_rule."), "tie_rule.table")
    if table.ndim != 1 or not np.all((np.abs(table) < 2**62) & (table == np.trunc(table))):
        raise ValueError(f"{path}: tie_rule.table must be a list of integer actions, got {doc['table']!r}")
    return FixedMap(table=tuple(int(a) for a in table))


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


def read_game(path) -> tuple[GameInstance, TieRule | None]:
    doc = _load(path)
    if doc.get("format") != GAME_FORMAT:
        raise ValueError(f"{path} is not a {GAME_FORMAT} file")
    # the stated sizes must fit the arrays: n_senders, states and actions here, the rest by GameInstance
    n_senders, states, actions, signals = (_integer(path, _field(path, doc, k), k, 1)
                                           for k in ("n_senders", "states", "actions", "signals"))
    prior = _numbers(path, _field(path, doc, "prior"), "prior")
    utilities = [_numbers(path, _field(path, doc, "receiver_utility"), "receiver_utility"),
                 *(_numbers(path, u, f"sender_utilities[{i}]")
                   for i, u in enumerate(_field(path, doc, "sender_utilities", list)))]
    if n_senders != len(utilities) - 1:
        raise ValueError(f"{path}: n_senders is {n_senders}, but the file has {len(utilities) - 1} sender utilities")
    for u in utilities:
        if u.shape != (states * actions,):
            # the prior's length is the game's state count, so it tells which size is off
            name, value = ("states", states) if states != len(prior) else ("actions", actions)
            raise ValueError(f"{path}: {name} is {value}, but a utility array has {len(u)} entries, "
                             f"not states x actions = {states} x {actions}")
    receiver, *senders = (u.reshape(states, actions) for u in utilities)
    tie = tie_rule_from_dict(path, doc["tie_rule"]) if "tie_rule" in doc else None
    with _naming(path):
        game = GameInstance(signals=signals, prior=prior, receiver_utility=receiver, sender_utilities=tuple(senders))
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
    shape = tuple(_integer(path, _field(path, doc, name), name, 1) for name in ("n_senders", "states", "signals"))
    policies = _numbers(path, _field(path, doc, "policies"), "policies")
    if policies.shape != (math.prod(shape),):
        raise ValueError(f"{path}: policies has {len(policies)} entries, "
                         f"not n_senders x states x signals = {' x '.join(map(str, shape))}")
    return policies.reshape(shape)


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


def write_report(path, report: EquilibriumReport) -> None:
    _dump(path, report_to_dict(report))


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
