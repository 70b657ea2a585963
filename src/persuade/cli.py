"""Command-line entry point wiring generators, exact solvers, the learning
pipeline, and report aggregation into reproducible experiments.

Commands: gen, exact, learn, reduce, report.  Every command writes a
manifest next to its output; re-running with the same flags reproduces the
outputs bit-identically (the manifest's timestamp aside).  Exit codes:
0 success, 1 usage, 2 invalid spec/precondition or `learn` training that
diverges, 3 I/O failure, 4 when the LP solver fails (pivot cap or a failed
certification), and 10 when `exact verify` refutes the profile.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import glob as globmod
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .equilibria import (
    DEFAULT_LOCAL_EPS,
    REFUTED,
    PreconditionError,
    best_response_exact,
    check_local_eps,
    full_revelation_profile,
    local_ne_verify,
    verify_nash,
)
from .game import TIE_RULES, CapError, Lexicographic, TieRule, ex_ante_utilities
from .io import (
    _dump,
    _field,
    _load,
    _typed,
    read_game,
    read_policies,
    report_to_dict,
    write_game,
    write_manifest,
    write_policies,
    write_report,
    write_sidecar,
    load_or_sample_dataset,
)
from .learning import EgConfig, TrainConfig, TrainingDiverged, find_local_ne, init_surrogate
from .lp import LpFailure
from .neural import save_params
from .reductions import (
    BimatrixGame,
    PublicPersuasionInstance,
    bimatrix_to_persuasion,
    public_to_best_response,
)
from .scenarios import (
    SyntheticSpec,
    product_ads_instance,
    quality_ads_instance,
    ride_hailing_instance,
    synthetic_instance,
)

EXIT_USAGE = 1
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_REFUTED = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class SpecError(ValueError):
    pass


def _require(doc: dict, field: str):
    if field not in doc:
        raise SpecError(f"missing config field: {field}")
    return doc[field]


def _section(cfg: dict, name: str) -> dict:
    """The learn config's section `name`, which must be a JSON object."""
    doc = _require(cfg, name)
    if not isinstance(doc, dict):
        raise SpecError(f"{name} must be a JSON object, got {doc!r}")
    return doc


# Generator kind -> (builder, required int fields, optional fields with
# their defaults); the builder takes the required fields and the seed
# positionally, then the optional ones by keyword.  `gen <kind>` takes each
# field as a flag (`shock_std` as `--shock-std`) and a learn config's
# `generator` entry as a key of the same name.  The lambdas look the
# scenario functions up when called, so wrappers installed on the module
# attributes (the benchmark's traced run) see these calls too.
GENERATORS = {
    "synthetic": (lambda *a: synthetic_instance(SyntheticSpec(*a)), ("n", "states", "signals", "actions"), {}),
    "quality-ads": (lambda *a, **kw: quality_ads_instance(*a, **kw), ("firms",), {"signals": 2, "shock_std": 1.0}),
    "product-ads": (
        lambda *a, **kw: product_ads_instance(*a, **kw),
        ("firms",),
        {"signals": 3, "quality_levels": 3, "shock_std": 1.0},
    ),
    "ride-hailing": (
        lambda *a, **kw: ride_hailing_instance(*a, **kw),
        ("m", "n"),
        {"cost_levels": 2, "payment_based": False},
    ),
}


TIE_FLAGS = {rule.flag: rule for rule in TIE_RULES.values() if rule.flag is not None}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _reject_unknown(doc: dict, known, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise SpecError(f"unknown {where} field: {', '.join(unknown)}")


def _generate(kind: str, fields: dict, seed: int):
    """Build a game of a registered kind from its fields; missing optional fields take their
    defaults, and a field the kind does not take (besides `kind` and `seed`) is an error."""
    if kind not in GENERATORS:
        raise SpecError(f"unknown generator kind {kind!r}")
    build, required, defaults = GENERATORS[kind]
    _reject_unknown(fields, ("kind", "seed", *required, *defaults), f"{kind} generator")
    args = [_require(fields, name) for name in required]
    return build(*args, seed, **{name: fields.get(name, default) for name, default in defaults.items()})


def _seed(text: str) -> int:
    """`--seed`'s type: a non-negative integer, so a bad seed is a usage error naming the flag."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _common_flags(p, *, tie: bool = False, eps: bool = False, seed: bool = False):
    """`--out`; `--tie`, `--eps` and `--seed` only for the commands that read them."""
    if seed:
        p.add_argument("--seed", type=_seed, default=None, help="root seed, a non-negative integer; "
                       "named sub-streams derive from it")
    p.add_argument("--out", required=True, help="output file or directory")
    if eps:
        p.add_argument("--eps", type=float, default=None, help="local-equilibrium neighborhood radius")
    if tie:
        p.add_argument("--tie", choices=list(TIE_FLAGS), help="receiver tie rule; beats the config's and the game file's")


@functools.cache    # built once per process: each parse_args call returns a new namespace
def build_parser() -> _Parser:
    root = _Parser(prog="persuade", description=__doc__)
    root.add_argument("--version", action="version", version=f"persuade {__version__}")
    sub = root.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a game instance")
    gen.set_defaults(func=cmd_gen)
    gsub = gen.add_subparsers(dest="kind", required=True)
    for kind, (_, required, defaults) in GENERATORS.items():
        g = gsub.add_parser(kind)
        for name in required:
            g.add_argument(_flag(name), type=int, required=True)
        for name, default in defaults.items():
            if isinstance(default, bool):
                g.add_argument(_flag(name), action="store_true")
            else:
                g.add_argument(_flag(name), type=type(default), default=default)
        _common_flags(g, tie=True, seed=True)

    exact = sub.add_parser("exact", help="exact solvers and checks")
    esub = exact.add_subparsers(dest="what", required=True)
    e_br = esub.add_parser("best-response")
    e_br.add_argument("--game", required=True)
    e_br.add_argument("--policy", required=True, help="joint policy file; the responder's row is the incumbent, "
                      "returned unless another policy earns more")
    e_br.add_argument("--sender", type=int, required=True)
    e_ver = esub.add_parser("verify")
    e_ver.add_argument("--game", required=True)
    e_ver.add_argument("--policy", required=True)
    e_ver.add_argument("--local", action="store_true", help="sampled eps-ball check instead of exact verification; "
                       "--eps and --seed need it")
    e_fr = esub.add_parser("full-reveal")
    e_fr.add_argument("--game", required=True)
    for p, func in ((e_br, cmd_best_response), (e_ver, cmd_verify), (e_fr, cmd_full_reveal)):
        p.set_defaults(func=func)
        _common_flags(p, tie=True, eps=p is e_ver, seed=p is e_ver)

    learn = sub.add_parser("learn", help="surrogate training + extra-gradient local-equilibrium search")
    learn.set_defaults(func=cmd_learn)
    learn.add_argument("--game", default=None, help="game file; defaults to the config's game/generator entry")
    learn.add_argument("--config", required=True)
    _common_flags(learn, tie=True, eps=True, seed=True)

    reduce = sub.add_parser("reduce", help="build persuasion instances from hard source problems")
    rsub = reduce.add_subparsers(dest="kind", required=True)
    r_pub = rsub.add_parser("public")
    r_pub.add_argument("--source", required=True, help="public-persuasion JSON (k, prior, gaps, u_plus, u_minus)")
    r_bim = rsub.add_parser("bimatrix")
    r_bim.add_argument("--source", required=True, help="bimatrix JSON (u1, u2 as nested 0/1 lists)")
    for p, func in ((r_pub, cmd_reduce_public), (r_bim, cmd_reduce_bimatrix)):
        p.set_defaults(func=func)
        _common_flags(p)

    report = sub.add_parser("report", help="aggregate learn results into plot-ready CSVs")
    report.set_defaults(func=cmd_report)
    report.add_argument("--glob", required=True, dest="pattern")
    _common_flags(report)
    return root


# ---------------------------------------------------------------------------
# command bodies


def _tie_rule(args, file_tie: TieRule | None = None, config_tie: str | None = None) -> TieRule:
    """`--tie`, else the learn config's `"tie"`, else the game file's rule, else lexicographic."""
    flag = args.tie if args.tie is not None else config_tie
    if flag is None:
        return file_tie if file_tie is not None else Lexicographic()
    if flag not in TIE_FLAGS:
        raise SpecError(f"unknown tie rule {flag!r}; expected one of {', '.join(TIE_FLAGS)}")
    return TIE_FLAGS[flag]()


def _manifest(args, path=None):
    """Record the command's arguments as given, by default in `<out>.manifest.json`."""
    doc = {k: v for k, v in vars(args).items() if k != "func"}
    write_manifest(path or f"{args.out}.manifest.json", args.command, doc, getattr(args, "seed", None))


def cmd_gen(args) -> int:
    _, required, defaults = GENERATORS[args.kind]
    fields = {k: v for k, v in vars(args).items() if k in (*required, *defaults)}
    game = _generate(args.kind, fields, 0 if args.seed is None else args.seed)
    write_game(args.out, game, tie=_tie_rule(args))
    write_sidecar(f"{args.out}.sidecar.json", game.meta or {})
    _manifest(args)
    print(f"wrote {args.out}: {game.n_senders} senders, {game.states} states, "
          f"{game.signals} signals, {game.actions} actions")
    return 0


def cmd_best_response(args) -> int:
    game, file_tie = read_game(args.game)
    tie = _tie_rule(args, file_tie)
    policy = read_policies(args.policy)
    if len(policy) != game.n_senders:
        raise SpecError(f"policy file has {len(policy)} senders, the game has {game.n_senders}")
    if not 0 <= args.sender < game.n_senders:
        raise SpecError(f"sender {args.sender} out of range")
    others = [policy[k] for k in range(game.n_senders) if k != args.sender]
    br = best_response_exact(game, args.sender, others, tie, incumbent=policy[args.sender])
    doc = {
        "format": "persuade-best-response",
        "sender": args.sender,
        "feasible": br.feasible,
        "utility": br.utility if br.feasible else None,
        "feasible_maps": br.feasible_maps,
        "policy": br.policy.ravel().tolist() if br.feasible else None,
        "action_map": br.action_map.tolist(),
    }
    _dump(args.out, doc)
    _manifest(args)
    if br.feasible:
        print(f"best response for sender {args.sender}: utility {br.utility:.12g}")
    else:
        print(f"sender {args.sender} has no policy that keeps the committed interpretation incentive compatible")
    return 0


def cmd_verify(args) -> int:
    if not args.local and (args.eps is not None or args.seed is not None):
        build_parser().error("exact verify reads --eps and --seed only with --local")
    game, file_tie = read_game(args.game)
    tie = _tie_rule(args, file_tie)
    policy = read_policies(args.policy)
    if args.local:
        eps = DEFAULT_LOCAL_EPS if args.eps is None else args.eps
        report = local_ne_verify(game, policy, tie, eps, 0 if args.seed is None else args.seed)
    else:
        report = verify_nash(game, policy, tie)
    write_report(args.out, report)
    _manifest(args)
    print(f"verdict: {report.verdict}; utilities {np.round(report.utilities, 6).tolist()}")
    return 0 if report.verdict != REFUTED else EXIT_REFUTED


def cmd_full_reveal(args) -> int:
    game, file_tie = read_game(args.game)
    tie = _tie_rule(args, file_tie)
    profile, cert = full_revelation_profile(game)
    write_policies(args.out, profile)
    write_sidecar(
        f"{args.out}.sidecar.json",
        {
            "certificate": {
                "zeta": [list(c) for c in cert.zeta],
                "assignment": {str(a): list(c) for a, c in cert.assignment.items()},
                "optimal_actions": cert.optimal_actions.tolist(),
                "capacity_note": cert.capacity_note,
            }
        },
    )
    _manifest(args)
    utilities = ex_ante_utilities(game, profile, tie)[0]
    print(f"wrote revealing profile; sender utilities {np.round(utilities, 6).tolist()}")
    return 0


# a results row's game dimensions, which `report` groups by
DIMS = ("n_senders", "states", "signals", "actions")
# the fields a learn config may hold; the surrogate widths go to `find_local_ne`
ARCH_FIELDS = ("hidden", "lower_layers", "hyper_hidden", "aux_hidden")
LEARN_FIELDS = ("game", "generator", "train", "eg", "tie", "eps", "sample_count", "architectures", *ARCH_FIELDS)


def _integer(value, field: str, least: int) -> int:
    """A config count or seed: an int, or a float with an integral value; never a bool."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if not isinstance(number, int) or isinstance(number, bool) or number < least:
        raise SpecError(f"{field} must be an integer of at least {least}, got {value!r}")
    return number


def _widths(value, field: str) -> tuple[int, ...]:
    """A config's layer widths: a list of integers of at least 1."""
    if not isinstance(value, list):
        raise SpecError(f"{field} must be a list of integers of at least 1, got {value!r}")
    return tuple(_integer(width, f"{field}[{i}]", 1) for i, width in enumerate(value))


def _real(value, field: str) -> float:
    """A config rate, constant or radius: a finite int or float; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise SpecError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def _generator_fields(kind: str, spec: dict) -> dict:
    """A learn config's `generator` entry with each field of its kind typed as `gen` types
    the flag: `seed` an integer of at least 0, a size or integer option an integer of at
    least 1, a float option a finite number, a switch `true` or `false`.  Other keys are
    left to `_generate` to reject."""
    _, required, defaults = GENERATORS.get(kind, (None, (), {}))
    fields = dict(spec)
    for name in ("seed", *required, *defaults):
        if name not in fields:
            continue
        value, where, default = fields[name], f"generator.{name}", defaults.get(name, 0)
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise SpecError(f"{where} must be true or false, got {value!r}")
        elif isinstance(default, float):
            fields[name] = _real(value, where)
        else:
            fields[name] = _integer(value, where, 0 if name == "seed" else 1)
    return fields


def _learn_section(cfg: dict, name: str, config_cls, seed):
    """The `train` or `eg` section as `config_cls`: only its fields, the seed replaced by
    `--seed` when given, each float field a finite number and each int field an integer,
    at least 1 for a count and at least 0 for the seed."""
    doc = dict(_section(cfg, name))
    defaults = {f.name: f.default for f in dataclasses.fields(config_cls)}
    _reject_unknown(doc, defaults, name)
    if seed is not None:
        doc["seed"] = seed
    for key, value in doc.items():
        where = f"{name}.{key}"
        is_real = isinstance(defaults[key], float)
        doc[key] = _real(value, where) if is_real else _integer(value, where, 0 if key == "seed" else 1)
    return config_cls(**doc)


def cmd_learn(args) -> int:
    cfg = _load(args.config)
    _reject_unknown(cfg, LEARN_FIELDS, "config")
    game_label = args.game if args.game is not None else cfg.get("game")
    if game_label is not None:
        if not isinstance(game_label, str):
            # `open` would take an integer (or a bool) as a file descriptor
            raise SpecError(f"game must be a game file path, got {game_label!r}")
        game, file_tie = read_game(game_label)
    else:
        spec = _section(cfg, "generator")
        kind = _require(spec, "kind")
        fields = _generator_fields(kind, spec)
        game = _generate(kind, fields, fields.get("seed", 0 if args.seed is None else args.seed))
        file_tie, game_label = None, f"generator:{kind}"
    train_cfg = _learn_section(cfg, "train", TrainConfig, args.seed)
    eg_cfg = _learn_section(cfg, "eg", EgConfig, args.seed)
    tie = _tie_rule(args, file_tie, cfg.get("tie"))
    eps = args.eps if args.eps is not None else _real(cfg.get("eps", DEFAULT_LOCAL_EPS), "eps")
    check_local_eps(eps)
    sample_count = _integer(cfg.get("sample_count", 50_000), "sample_count", 1)
    archs = cfg.get("architectures", ["dnl"])
    if not isinstance(archs, list) or not archs or not all(isinstance(a, str) for a in archs):
        raise SpecError(f"architectures must be a non-empty list of architecture names, got {archs!r}")
    if len(set(archs)) < len(archs):
        raise SpecError(f"architectures must name each architecture once, got {archs!r}")
    arch_kwargs = {k: _integer(v, k, 1) if k == "lower_layers" else _widths(v, k)
                   for k, v in cfg.items() if k in ARCH_FIELDS}
    for name in archs:
        # each architecture's constructor checks its own shape rules here, before anything is written
        init_surrogate(game, name, np.random.default_rng(0), **arch_kwargs)

    os.makedirs(args.out, exist_ok=True)
    dataset = load_or_sample_dataset(game, sample_count, tie, train_cfg.seed)
    rows_out = []
    for arch in archs:
        res = find_local_ne(
            game, train_cfg, eg_cfg, tie, eps=eps, arch=arch, dataset=dataset, **arch_kwargs
        )
        table_path = os.path.join(args.out, f"restarts-{arch}.csv")
        with open(table_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["restart", "verified", "welfare"] + [f"u{j}" for j in range(game.n_senders)])
            for o in res.restarts:
                w.writerow(
                    [o.restart, "" if o.verified is None else int(o.verified), f"{o.welfare!r}"]
                    + [f"{u!r}" for u in o.utilities]
                )
        policy_path = os.path.join(args.out, f"policy-{arch}.json")
        write_policies(policy_path, res.policy)
        for j, net in enumerate(res.nets):
            save_params(os.path.join(args.out, f"net-{arch}-sender{j}.json"), net)
        rows_out.append(
            {
                "arch": arch,
                "verified": res.verified,
                "verdict": res.report.verdict,
                "welfare": float(res.report.utilities.sum()),
                "utilities": res.report.utilities.tolist(),
                "validation_mse": res.validation_mse,
                "losses": res.losses,
                "eps": eps,
                "restarts_csv": table_path,
                "policy": policy_path,
                "report": report_to_dict(res.report),
                "dims": {k: getattr(game, k) for k in DIMS},
            }
        )
        print(f"{arch}: verdict {res.report.verdict}, welfare {rows_out[-1]['welfare']:.6g}, "
              f"validation mse {res.validation_mse:.6g}")
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump({"format": "persuade-results", "game": game_label, "rows": rows_out}, fh, indent=1)
    _manifest(args, os.path.join(args.out, "run.manifest.json"))
    return 0


def cmd_reduce_public(args) -> int:
    src = _load(args.source)
    pub = PublicPersuasionInstance(
        prior=np.asarray(_require(src, "prior"), dtype=float),
        gaps=np.asarray(_require(src, "gaps"), dtype=float),
        u_plus=np.asarray(_require(src, "u_plus"), dtype=float),
        u_minus=np.asarray(_require(src, "u_minus"), dtype=float),
    )
    if _require(src, "k") != pub.k:
        raise SpecError(f"k is {src['k']!r}, but gaps has {pub.k} rows")
    game, pi2 = public_to_best_response(pub)
    write_game(args.out, game)
    write_policies(f"{args.out}.opponent-policy.json", pi2[None, :, :])
    write_sidecar(
        f"{args.out}.sidecar.json",
        {"source": args.source, "source_doc": src, "params": game.meta["params"]},
    )
    _manifest(args)
    print(f"wrote reduction: {game.states} states, {game.actions} actions, alphabet {game.signals}")
    return 0


def cmd_reduce_bimatrix(args) -> int:
    src = _load(args.source)
    bim = BimatrixGame(u1=np.asarray(_require(src, "u1"), dtype=float), u2=np.asarray(_require(src, "u2"), dtype=float))
    game, amap = bimatrix_to_persuasion(bim)
    write_game(args.out, game, tie=amap)
    write_sidecar(f"{args.out}.sidecar.json", {"source": args.source, "source_doc": src})
    _manifest(args)
    print(f"wrote reduction: 2 states, 4 actions, alphabet {game.signals}, fixed interpretation attached")
    return 0


def _ci95(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def cmd_report(args) -> int:
    paths = sorted(globmod.glob(args.pattern))
    if not paths:
        raise SpecError(f"no result files match {args.pattern!r}")
    rows = []
    for path in paths:
        doc = _load(path)
        if doc.get("format") != "persuade-results":
            continue
        for i, row in enumerate(_field(path, doc, "rows", list)):
            # each row holds what the CSVs group and average
            where = f"rows[{i}]."
            dims = _field(path, _typed(path, row, f"rows[{i}]", dict), "dims", dict, where)
            for name in ("arch", "validation_mse", "welfare"):
                _field(path, row, name, where=where)
            for d in DIMS:
                _field(path, dims, d, where=f"{where}dims.")
            rows.append(row)
    if not rows:
        raise SpecError("matched files contain no result rows")

    def write_groups(path, dims):
        """One CSV row per (dims..., arch) group."""
        groups: dict = {}
        for row in rows:
            groups.setdefault((*(row["dims"][d] for d in dims), row["arch"]), []).append(row)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([*dims, "arch", "count", "mse_mean", "mse_ci95", "welfare_mean", "welfare_ci95"])
            for key in sorted(groups):
                grp = groups[key]
                mse_m, mse_c = _ci95([g["validation_mse"] for g in grp])
                wf_m, wf_c = _ci95([g["welfare"] for g in grp])
                w.writerow(list(key) + [len(grp), repr(mse_m), repr(mse_c), repr(wf_m), repr(wf_c)])

    write_groups(args.out, DIMS)
    for axis in DIMS[1:]:
        write_groups(f"{args.out}.by-{axis}.csv", (axis,))
    _manifest(args)
    print(f"aggregated {len(rows)} rows from {len(paths)} files into {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (SpecError, PreconditionError, CapError, TrainingDiverged, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LpFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return code


if __name__ == "__main__":
    sys.exit(main())
