"""Workload inputs, the ops that run on them, and the checks on every op's output.

A workload is a list of families; each family holds a pool of ops built
from the workload seed.  A round runs every op once, the families
interleaved; a run measures whole rounds only, so the ops measured do
not depend on how fast the program is.

CLI ops run in-process through `persuade.cli.main`; labeling has no CLI
and runs as the public `persuade.sample_dataset`, and the eps-ball ops
call the public `persuade.local_ne_verify`.  Setup calls the
generators and writers through their modules at call time, so the traced
run sees them.  Checks call the original functions captured below, never
the traced wrappers, and run outside the timed region.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import persuade
from persuade import cli, equilibria, game, io, scenarios
from persuade.game import FixedMap, Lexicographic, SenderFavoring
from persuade.rng import substream

REF_EX_ANTE = game.ex_ante_utilities
REF_FIXED = game.ex_ante_utilities_fixed_interpretation
REF_READ_GAME = io.read_game
REF_READ_POLICIES = io.read_policies

LEX, SF = Lexicographic(), SenderFavoring()
TIE_FLAG = {LEX: "lex", SF: "sender-favoring"}
UTILITY_TOL = 1e-12       # reported utilities against a fresh exact evaluation
EXIT_OK = (0,)
EXIT_VERIFY = (0, cli.EXIT_REFUTED)


class CheckFailure(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    family: str
    run: Callable[[str], object]       # out path -> exit code or value
    check: Callable[[str, object], object]   # (out path, run result) -> extra outcome info
    work: int = 1                      # deviations or rows for throughput; 1 otherwise
    codes: tuple = EXIT_OK             # exit codes that count as success; () for library calls
    label: str = ""                    # names the instance in failure reports


@dataclass
class Workload:
    families: list = field(default_factory=list)   # [(family name, [Op, ...]), ...]
    warmup: Op | None = None

    def ops(self) -> list:
        """One round: every op once, the families interleaved."""
        depth = max(len(pool) for _, pool in self.families)
        return [pool[j] for j in range(depth) for _, pool in self.families if j < len(pool)]


# ---------------------------------------------------------------------------
# helpers


def dirichlet_profile(rng, n: int, states: int, signals: int) -> np.ndarray:
    """Flat-Dirichlet row-stochastic policies for every sender."""
    d = rng.exponential(1.0, size=(n, states, signals))
    return d / d.sum(axis=2, keepdims=True)


def _scale(values) -> float:
    return max(1.0, float(np.max(np.abs(values))))


def _utilities(g, profile, tie) -> np.ndarray:
    if isinstance(tie, FixedMap):
        return REF_FIXED(g, profile, tie)
    return REF_EX_ANTE(g, profile, tie)[0]


def _check_report(doc: dict, g, tie, profile, improve_tol: float) -> str:
    """Utilities match a fresh evaluation; a refutation's witness really gains."""
    base = _utilities(g, profile, tie)
    got = np.asarray(doc["utilities"], dtype=float)
    if got.shape != base.shape or np.max(np.abs(got - base)) > UTILITY_TOL * _scale(base):
        raise CheckFailure(f"utilities {got.tolist()} != {base.tolist()}")
    verdict = doc["verdict"]
    if verdict == equilibria.REFUTED:
        j = doc["witness_sender"]
        dev = profile.copy()
        dev[j] = np.asarray(doc["witness_policy"], dtype=float)
        gain = _utilities(g, dev, tie)[j] - base[j]
        if not gain > improve_tol:
            raise CheckFailure(f"witness of sender {j} gains {gain:.3g}, not above {improve_tol:g}")
    elif verdict not in (equilibria.EXACT, equilibria.EPSILON_LOCAL):
        raise CheckFailure(f"unknown verdict {verdict!r}")
    return verdict


def _cli(argv: list) -> Callable[[str], object]:
    return lambda out: cli.main([*argv, "--out", out])


def _write_game(path, g, tie=None) -> str:
    io.write_game(path, g, tie=tie)
    return path


def _write_policy(path, profile) -> str:
    io.write_policies(path, profile)
    return path


def verify_op(family, d, tag, g, profile, tie, *, expect=None, label="") -> Op:
    """`exact verify` of `profile`; a FixedMap tie travels in the game file."""
    fixed = isinstance(tie, FixedMap)
    gpath = _write_game(os.path.join(d, f"{tag}.game.json"), g, tie if fixed else None)
    ppath = _write_policy(os.path.join(d, f"{tag}.policy.json"), profile)
    argv = ["exact", "verify", "--game", gpath, "--policy", ppath]
    if not fixed:
        argv += ["--tie", TIE_FLAG[tie]]

    def check(out, code):
        with open(out) as fh:
            verdict = _check_report(json.load(fh), g, tie, profile, equilibria.DEFAULT_NASH_TOL)
        if expect is not None and verdict != expect:
            raise CheckFailure(f"verdict {verdict}, expected {expect}")
        return verdict

    return Op(family, _cli(argv), check, codes=EXIT_VERIFY, label=label or tag)


def _synthetic(shape):
    return lambda s: scenarios.synthetic_instance(scenarios.SyntheticSpec(*shape, s))


def _shape_name(kind, shape) -> str:
    return f"{kind}(" + ",".join(map(str, shape)) + ")"


def _random_profiles(rng, pool, make):
    """`pool` (game seed, game, Dirichlet profile) triples."""
    out = []
    for k in range(pool):
        s = int(rng.integers(2**31))
        g = make(s)
        out.append((s, g, dirichlet_profile(rng, g.n_senders, g.states, g.signals)))
    return out


# ---------------------------------------------------------------------------
# exact: Nash verification and best responses, bound by the LP solver

EXACT_SHAPES = [(2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 2, 3), (2, 3, 3, 3), (2, 4, 3, 4)]
REVEAL_SHAPES = [(2, 2, 2, 2), (3, 3, 2, 3), (2, 3, 3, 3)]   # signals^(n-1) >= actions
KNOWN_PIVOT_CAP_SEED = 3    # ride_hailing_instance(2, 2, seed=3) hits the simplex pivot cap
CATALOGUE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "exact_catalogue.json")


def _profile_candidate(make, tie, first_seeds=()):
    """Dirichlet-random profile of a generated game; `first_seeds` fix the leading games."""

    def candidate(family, d, k, rng):
        s = first_seeds[k] if k < len(first_seeds) else int(rng.integers(2**31))
        g = make(s)
        prof = dirichlet_profile(rng, g.n_senders, g.states, g.signals)
        return verify_op(family, d, f"{family}-{k}", g, prof, tie, label=f"{family} game seed {s}, candidate {k}")

    return candidate


def _reveal_candidate(shape):
    def candidate(family, d, k, rng):
        g = scenarios.synthetic_instance(scenarios.SyntheticSpec(*shape, int(rng.integers(2**31))))
        tag = f"{family}-{k}"
        gpath = _write_game(os.path.join(d, f"{tag}.game.json"), g)
        ppath = os.path.join(d, f"{tag}.reveal.json")
        if cli.main(["exact", "full-reveal", "--game", gpath, "--out", ppath]) != 0:
            raise RuntimeError(f"full-reveal failed on {tag}")
        prof = REF_READ_POLICIES(ppath)
        return verify_op(family, d, tag, g, prof, LEX, expect=equilibria.EXACT, label=f"{family} candidate {k}")

    return candidate


def _bimatrix_candidate(family, d, k, rng):
    m = 2 + k % 2
    tag = f"{family}-{k}"
    src = os.path.join(d, f"{tag}.source.json")
    with open(src, "w") as fh:
        json.dump({"u1": rng.integers(0, 2, (m, m)).tolist(), "u2": rng.integers(0, 2, (m, m)).tolist()}, fh)
    gpath = os.path.join(d, f"{tag}.reduced.json")
    if cli.main(["reduce", "bimatrix", "--source", src, "--out", gpath]) != 0:
        raise RuntimeError(f"reduce bimatrix failed on {src}")
    g, tie = REF_READ_GAME(gpath)
    prof = dirichlet_profile(rng, 2, g.states, g.signals)
    return verify_op(family, d, tag, g, prof, tie, label=f"{family} candidate {k}")


def _public_br_candidate(family, d, k, rng):
    kk, m0 = 2 + k % 2, 2 + (k // 2) % 2
    tag = f"{family}-{k}"
    prior = rng.exponential(1.0, m0)
    src = os.path.join(d, f"{tag}.source.json")
    with open(src, "w") as fh:
        json.dump(
            {
                "k": kk,
                "prior": (prior / prior.sum()).tolist(),
                "gaps": rng.uniform(-1.0, 1.0, (kk, m0)).tolist(),
                "u_plus": rng.uniform(0.0, 1.0, (kk, m0)).tolist(),
                "u_minus": rng.uniform(0.0, 1.0, (kk, m0)).tolist(),
            },
            fh,
        )
    gpath = os.path.join(d, f"{tag}.reduced.json")
    if cli.main(["reduce", "public", "--source", src, "--out", gpath]) != 0:
        raise RuntimeError(f"reduce public failed on {src}")
    g, _ = REF_READ_GAME(gpath)
    opponent = REF_READ_POLICIES(f"{gpath}.opponent-policy.json")[0]
    incumbent = dirichlet_profile(rng, 1, g.states, g.signals)[0]
    profile = np.stack([incumbent, opponent])
    ppath = _write_policy(os.path.join(d, f"{tag}.policy.json"), profile)
    argv = ["exact", "best-response", "--game", gpath, "--policy", ppath, "--sender", "0"]
    return Op(family, _cli(argv), _best_response_check(g, profile), label=f"{family} candidate {k}")


def _best_response_check(g, profile):
    def check(out, code):
        with open(out) as fh:
            doc = json.load(fh)
        pol = np.asarray(doc["policy"], dtype=float).reshape(g.states, g.signals)
        if np.any(pol < -1e-12) or np.max(np.abs(pol.sum(axis=1) - 1.0)) > 1e-9:
            raise CheckFailure("best response is not row-stochastic")
        dev = profile.copy()
        dev[0] = pol
        table = FixedMap(tuple(int(a) for a in doc["action_map"]))
        value = REF_FIXED(g, dev, table)[0]
        incumbent = REF_EX_ANTE(g, profile, LEX)[0][0]
        scale = _scale([value, incumbent])
        if abs(value - doc["utility"]) > 1e-9 * scale:
            raise CheckFailure(f"utility {doc['utility']!r} != map utility {value!r}")
        if doc["utility"] < incumbent - 1e-9 * scale:
            raise CheckFailure(f"best response {doc['utility']!r} below incumbent {incumbent!r}")
        return "best_response"

    return check


def _two_block_candidate(family, d, k, rng):
    return verify_op(family, d, "two-block", persuade.two_block_game(), persuade.two_block_equilibrium_policies(), SF)


# family -> (candidate builder, number of candidates in the catalogue)
EXACT_FAMILIES = {
    **{_shape_name("synthetic", shape): (_profile_candidate(_synthetic(shape), LEX), 16) for shape in EXACT_SHAPES},
    "quality-ads(2)": (_profile_candidate(lambda s: scenarios.quality_ads_instance(2, s), LEX), 16),
    "product-ads(2)": (_profile_candidate(lambda s: scenarios.product_ads_instance(2, s), SF), 16),
    "ride-hailing(2x2)": (
        _profile_candidate(lambda s: scenarios.ride_hailing_instance(2, 2, s), LEX, (KNOWN_PIVOT_CAP_SEED,)),
        16,
    ),
    "two-block-reference": (_two_block_candidate, 1),
    **{_shape_name("full-reveal", shape): (_reveal_candidate(shape), 4) for shape in REVEAL_SHAPES},
    "bimatrix-fixedmap": (_bimatrix_candidate, 4),
    "public-best-response": (_public_br_candidate, 16),
}


def exact_candidate(family: str, k: int, d: str) -> Op:
    """Candidate `k` of `family`: the same op whatever the run's seed."""
    build_op, _ = EXACT_FAMILIES[family]
    return build_op(family, d, k, substream(k, f"bench:exact:{family}"))


# Catalogue strata: finished candidates by LP solves (< 4, < 16, < 64, < 256,
# < 1024, then all the rest), failed candidates, and the known pivot-cap
# instance.  That is the only candidate drawn that took more than a third of
# the limit in the catalogue: a slow spell of the machine could push any
# other such candidate past the limit in one run and not in the next, and
# each over-limit one would cost the whole limit in every run.
LP_BOUNDS = (4, 16, 64, 256, 1024)
PIVOT_CAP_CANDIDATE = ("ride-hailing(2x2)", 0)
DRAWS_BELOW_1024 = 3      # candidates drawn from each finished stratum under 1024 LPs; 1 elsewhere


def lp_stratum(entry: dict, limit_s: float) -> tuple[int, str] | None:
    """(rank, name) of a catalogue entry's stratum, cheapest first; None when it is never drawn."""
    if (entry["family"], entry["k"]) == PIVOT_CAP_CANDIDATE:
        return len(LP_BOUNDS) + 2, "pivot_cap"
    if entry["seconds"] > limit_s / 3:
        return None
    if not entry["outcome"].startswith("ok:"):
        return len(LP_BOUNDS) + 1, "failed"
    for rank, bound in enumerate(LP_BOUNDS):
        if entry["lp_solves"] < bound:
            return rank, f"lp<{bound}"
    return len(LP_BOUNDS), f"lp>={LP_BOUNDS[-1]}"


def exact_workload(d: str, seed: int, smoke: bool) -> Workload:
    """Candidates of the catalogue drawn by `seed`, a fixed number per stratum.

    Candidates in one stratum cost about the same, so every seed measures
    the same kind of op in each stratum while the instances differ.  The
    smoke mode draws one candidate of each family's cheapest stratum.
    """
    with open(CATALOGUE) as fh:
        catalogue = json.load(fh)
    cells: dict = {}
    for entry in catalogue["entries"]:
        stratum = lp_stratum(entry, catalogue["limit_s"])
        if stratum is not None:
            cells.setdefault(entry["family"], {}).setdefault(stratum, []).append(entry["k"])
    rng = substream(seed, "bench:exact")
    w = Workload()
    for family, strata in cells.items():
        ks = []
        for (rank, _), members in sorted(strata.items()):
            n = 1 if smoke or rank >= len(LP_BOUNDS) else min(len(members), DRAWS_BELOW_1024)
            ks += sorted(int(k) for k in rng.choice(members, size=n, replace=False))
            if smoke:
                break
        w.families.append((family, [exact_candidate(family, k, d) for k in ks]))
    w.warmup = exact_candidate("synthetic(2,2,2,2)", 0, d)
    return w


# ---------------------------------------------------------------------------
# learn: surrogate training, extra-gradient and eps-ball verification

ARCHS = ("relu", "delu", "dnl")
# Criterion-8 scale, but one extra-gradient restart: candidates are verified
# until one passes, so with more restarts an op's cost depends on its game.
LEARN_CONFIG = {
    "sample_count": 6000,
    "eps": 0.005,
    "train": {"epochs": 15, "batch_size": 128, "learning_rate": 0.01, "seed": 1},
    "eg": {"steps": 20, "learning_rate": 0.1, "restarts": 1, "seed": 2},
    "hidden": [16, 16, 16],
    "lower_layers": 1,
    "hyper_hidden": [12],
    "aux_hidden": [16, 16],
}
SMOKE_LEARN = {
    "sample_count": 300,
    "train": {"epochs": 2, "batch_size": 64, "learning_rate": 0.01, "seed": 1},
    "eg": {"steps": 3, "learning_rate": 0.1, "restarts": 3, "seed": 2},
}


def _learn_check(g, tie):
    def check(out, code):
        with open(os.path.join(out, "results.json")) as fh:
            rows = json.load(fh)["rows"]
        if not rows:
            raise CheckFailure("results.json has no rows")
        verified = 0
        for row in rows:
            profile = REF_READ_POLICIES(row["policy"])
            _check_report(row["report"], g, tie, profile, equilibria.IMPROVE_TOL)
            if np.max(np.abs(np.asarray(row["utilities"]) - REF_EX_ANTE(g, profile, tie)[0])) > UTILITY_TOL * _scale(
                row["utilities"]
            ):
                raise CheckFailure("results.json utilities differ from the true game")
            verified += row["verdict"] == equilibria.EPSILON_LOCAL
        return f"verified {verified}/{len(rows)}"

    return check


def learn_workload(d: str, seed: int, pool: int, smoke: bool) -> Workload:
    rng = substream(seed, "bench:learn")
    w = Workload()
    configs = {}
    for arch in ARCHS:
        cfg = {"architectures": [arch], **LEARN_CONFIG, **(SMOKE_LEARN if smoke else {})}
        configs[arch] = os.path.join(d, f"learn-{arch}.config.json")
        with open(configs[arch], "w") as fh:
            json.dump(cfg, fh)
    # each architecture gets its own games, so consecutive ops never share a game
    for arch in ARCHS:
        ops = []
        for k in range(pool):
            g = scenarios.synthetic_instance(scenarios.SyntheticSpec(2, 2, 2, 2, int(rng.integers(2**31))))
            gpath = _write_game(os.path.join(d, f"learn-{arch}-{k}.game.json"), g)
            argv = ["learn", "--game", gpath, "--config", configs[arch], "--seed", str(int(rng.integers(2**31)))]
            ops.append(Op(f"learn-{arch}", _cli(argv), _learn_check(g, LEX)))
        w.families.append((f"learn-{arch}", ops))
    tiny = {"architectures": ["relu"], **LEARN_CONFIG, **SMOKE_LEARN}
    tiny_path = os.path.join(d, "learn-warmup.config.json")
    with open(tiny_path, "w") as fh:
        json.dump(tiny, fh)
    g = scenarios.synthetic_instance(scenarios.SyntheticSpec(2, 2, 2, 2, 0))
    gpath = _write_game(os.path.join(d, "learn-warmup.game.json"), g)
    w.warmup = Op("warmup", _cli(["learn", "--game", gpath, "--config", tiny_path, "--seed", "0"]), _learn_check(g, LEX))
    return w


# ---------------------------------------------------------------------------
# evaluate-local: the single-profile evaluation path, one exact evaluation per deviation

# Deviations per sender.  `exact verify --local` draws 10,000 per sender on
# these games (4-7 s an op); the public `local_ne_verify` with a smaller
# budget runs the same per-deviation path in ops short enough that each op
# repeats many times in one run.
LOCAL_SAMPLES = 100
LOCAL_EPS = 0.005


def _local_op(family, g, profile, tie, seed, label, samples=LOCAL_SAMPLES) -> Op:
    def run(out):
        return persuade.local_ne_verify(g, profile, tie, LOCAL_EPS, seed, samples=samples)

    def check(out, report):
        if report.samples != samples:
            raise CheckFailure(f"{report.samples} deviations per sender, asked for {samples}")
        return _check_report(io.report_to_dict(report), g, tie, profile, equilibria.IMPROVE_TOL)

    return Op(family, run, check, work=g.n_senders * samples, codes=(), label=label)


def evaluate_local_workload(d: str, seed: int, pool: int, smoke: bool) -> Workload:
    rng = substream(seed, "bench:evaluate-local")
    ref = persuade.two_block_game()
    families = [
        ("two-block", lambda s: ref, SF),
        ("synthetic(3,3,2,3)", _synthetic((3, 3, 2, 3)), LEX),
        ("quality-ads(3)", lambda s: scenarios.quality_ads_instance(3, s), LEX),
        ("product-ads(2)", lambda s: scenarios.product_ads_instance(2, s), SF),
    ]
    w = Workload()
    for family, make, tie in families[:1] if smoke else families:
        ops = [
            _local_op(family, g, prof, tie, int(rng.integers(2**31)), f"{family} game seed {s}, profile {k}")
            for k, (s, g, prof) in enumerate(_random_profiles(rng, pool, make))
        ]
        w.families.append((family, ops))
    _, g, prof = _random_profiles(rng, 1, families[0][1])[0]
    w.warmup = _local_op("warmup", g, prof, families[0][2], 0, "warmup", samples=20)
    return w


# ---------------------------------------------------------------------------
# evaluate-batch: dataset labeling, the batched evaluation path

# Rows per op: small enough that the arrays stay in cache-sized chunks and
# each op repeats many times in one run.
BATCH_FAMILIES = [((2, 2, 2, 2), LEX, 20_000), ((2, 2, 2, 2), SF, 20_000), ((3, 4, 3, 4), LEX, 2_000), ((3, 4, 3, 4), SF, 2_000)]
LABEL_CHECK_ROWS = 4


def _label_op(family, g, tie, rows, seed, check_rng) -> Op:
    def run(out):
        return persuade.sample_dataset(g, rows, tie, seed)

    def check(out, ds):
        if ds.utilities.shape != (rows, g.n_senders):
            raise CheckFailure(f"labels have shape {ds.utilities.shape}")
        policies = ds.policies()
        for i in check_rng.choice(rows, size=min(rows, LABEL_CHECK_ROWS), replace=False):
            want = REF_EX_ANTE(g, policies[i], tie)[0]
            if np.max(np.abs(ds.utilities[i] - want)) > UTILITY_TOL * _scale(want):
                raise CheckFailure(f"row {i}: {ds.utilities[i].tolist()} != {want.tolist()}")
        return "labeled"

    return Op(family, run, check, work=rows, codes=())


def evaluate_batch_workload(d: str, seed: int, pool: int, smoke: bool) -> Workload:
    rng = substream(seed, "bench:evaluate-batch")
    check_rng = substream(seed, "bench:evaluate-batch:check")
    w = Workload()
    for shape, tie, rows in BATCH_FAMILIES:
        rows = rows // 100 if smoke else rows
        family = "label(" + ",".join(map(str, shape)) + f")-{TIE_FLAG[tie]}"
        ops = []
        for k in range(pool):
            g = scenarios.synthetic_instance(scenarios.SyntheticSpec(*shape, int(rng.integers(2**31))))
            ops.append(_label_op(family, g, tie, rows, int(rng.integers(2**31)), check_rng))
        w.families.append((family, ops))
    g = scenarios.synthetic_instance(scenarios.SyntheticSpec(2, 2, 2, 2, 0))
    w.warmup = _label_op("warmup", g, LEX, 64, 0, check_rng)
    return w


def build(name: str, d: str, seed: int, smoke: bool) -> Workload:
    if name == "exact":
        return exact_workload(d, seed, smoke)
    if name == "learn":
        return learn_workload(d, seed, 2, smoke)
    if name == "evaluate-local":
        return evaluate_local_workload(d, seed, 2, smoke)
    if name == "evaluate-batch":
        return evaluate_batch_workload(d, seed, 2 if smoke else 4, smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact", "learn", "evaluate-local", "evaluate-batch")
