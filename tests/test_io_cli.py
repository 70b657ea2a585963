import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from persuade.cli import EXIT_USAGE, GENERATORS, _tie_rule, build_parser, main
from persuade.equilibria import EquilibriumReport
from persuade.game import TIE_RULES, FixedMap, GameInstance, Lexicographic, SenderFavoring
from persuade.io import (
    load_or_sample_dataset,
    read_game,
    read_policies,
    read_report,
    tie_rule_from_dict,
    write_game,
    write_policies,
    write_report,
)
from persuade.reference import two_block_game, two_block_equilibrium_policies
from persuade.scenarios import SyntheticSpec, synthetic_instance

from conftest import random_game, random_profile


def run_cli(args):
    return main([str(a) for a in args])


class TestRoundTrips:
    def test_game_file_exact(self, tmp_path, rng):
        g = random_game(2, 3, 4, 3, rng)
        path = tmp_path / "g.json"
        write_game(path, g, tie=SenderFavoring(weights=(1.0, 2.0)))
        back, tie = read_game(path)
        assert np.array_equal(back.prior, g.prior)
        assert np.array_equal(back.receiver_utility, g.receiver_utility)
        for a, b in zip(back.sender_utilities, g.sender_utilities):
            assert np.array_equal(a, b)
        assert tie == SenderFavoring(weights=(1.0, 2.0))

    def test_policy_file_exact(self, tmp_path, rng):
        pol = rng.dirichlet(np.ones(3), size=(2, 4))
        path = tmp_path / "p.json"
        write_policies(path, pol)
        assert np.array_equal(read_policies(path), pol)

    def test_tie_rules(self, tmp_path, rng):
        rules = (Lexicographic(), SenderFavoring(), SenderFavoring(weights=(0.5, 2.0)), FixedMap((0, 1, 2, 3)))
        assert {type(tie) for tie in rules} == set(TIE_RULES.values())
        g = random_game(2, 3, 2, 4, rng)   # 4 joint signals, 4 actions
        for k, tie in enumerate(rules):
            assert TIE_RULES[tie.kind] is type(tie)
            assert tie_rule_from_dict(tie.to_dict()) == tie
            first, second = tmp_path / f"{k}-first.json", tmp_path / f"{k}-second.json"
            write_game(first, g, tie=tie)
            back, back_tie = read_game(first)
            assert back_tie == tie
            write_game(second, back, tie=back_tie)
            assert first.read_bytes() == second.read_bytes()

    def test_report_round_trip(self, tmp_path):
        rep = EquilibriumReport(
            verdict="refuted",
            utilities=np.array([0.1, 0.2]),
            max_improvement=0.05,
            witness_sender=1,
            witness_policy=np.full((2, 2), 0.5),
            samples=100,
            eps=0.01,
        )
        path = tmp_path / "r.json"
        write_report(path, rep)
        back = read_report(path)
        assert back.verdict == rep.verdict
        assert np.array_equal(back.utilities, rep.utilities)
        assert back.witness_sender == 1
        assert np.array_equal(back.witness_policy, rep.witness_policy)

    def test_text_is_stable_across_writes(self, tmp_path):
        g = synthetic_instance(SyntheticSpec(2, 3, 2, 3, 11))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_game(a, g)
        write_game(b, g)
        assert a.read_bytes() == b.read_bytes()


class TestCliCommands:
    def test_gen_is_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
        base = ["gen", "synthetic", "--n", 2, "--states", 2, "--signals", 2, "--actions", 2, "--seed", 7]
        assert run_cli(base + ["--out", out1]) == 0
        assert run_cli(base + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "g1.json.manifest.json").exists()
        assert (tmp_path / "g1.json.sidecar.json").exists()

    def test_verify_exit_codes(self, tmp_path):
        game_path = tmp_path / "ref.json"
        pol_path = tmp_path / "pol.json"
        bad_path = tmp_path / "bad.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        pol = two_block_equilibrium_policies()
        write_policies(pol_path, pol)
        bad = pol.copy()
        bad[0, 0] = [0.8, 0.2, 0.0, 0.0]
        write_policies(bad_path, bad)
        assert run_cli(["exact", "verify", "--game", game_path, "--policy", pol_path,
                        "--out", tmp_path / "r1.json"]) == 0
        assert run_cli(["exact", "verify", "--game", game_path, "--policy", bad_path,
                        "--out", tmp_path / "r2.json"]) == 10
        rep = read_report(tmp_path / "r1.json")
        assert rep.verdict == "exact"
        assert np.allclose(rep.utilities, [0.3, 0.3], atol=1e-9)

    def test_full_reveal_precondition_exit(self, tmp_path):
        V = np.array([[1.0, 1.0], [0.0, 1.0]])
        g = random_game(2, 2, 2, 2, np.random.default_rng(0))
        g = type(g)(2, 2, 2, 2, g.prior, V, g.sender_utilities)
        path = tmp_path / "tied.json"
        write_game(path, g)
        assert run_cli(["exact", "full-reveal", "--game", path, "--out", tmp_path / "fr.json"]) == 2

    def test_best_response_matches_library(self, tmp_path):
        from persuade.equilibria import best_response_exact

        game_path, pol_path, out = tmp_path / "g.json", tmp_path / "p.json", tmp_path / "br.json"
        g = two_block_game()
        pol = two_block_equilibrium_policies()
        write_game(game_path, g, tie=SenderFavoring())
        write_policies(pol_path, pol)
        assert run_cli(["exact", "best-response", "--game", game_path, "--policy", pol_path,
                        "--sender", 0, "--out", out]) == 0
        doc = json.loads(out.read_text())
        lib = best_response_exact(g, 0, [pol[1]], SenderFavoring(), incumbent=pol[0])
        assert doc["utility"] == pytest.approx(lib.utility, abs=1e-12)

    def test_best_response_on_reduced_bimatrix_game(self, tmp_path):
        from persuade.equilibria import best_response_fixed_interpretation

        src, game_path, pol_path, out = (tmp_path / n for n in ("bim.json", "g.json", "p.json", "br.json"))
        src.write_text(json.dumps({"u1": [[1, 0], [0, 1]], "u2": [[0, 1], [1, 1]]}))
        assert run_cli(["reduce", "bimatrix", "--source", src, "--out", game_path]) == 0
        g, tie = read_game(game_path)
        assert isinstance(tie, FixedMap)
        pol = np.array([[[0.5, 0.5], [0.3, 0.7]], [[0.5, 0.5], [0.6, 0.4]]])
        write_policies(pol_path, pol)
        assert run_cli(["exact", "best-response", "--game", game_path, "--policy", pol_path,
                        "--sender", 1, "--out", out]) == 0
        doc = json.loads(out.read_text())
        lib = best_response_fixed_interpretation(g, 1, [pol[0]], tie)
        assert doc["feasible"] is True
        assert doc["utility"] == pytest.approx(lib.utility, abs=1e-12)
        assert np.allclose(doc["policy"], lib.policy.ravel(), atol=1e-12)
        assert doc["action_map"] == list(tie.table)

    def test_best_response_infeasible_interpretation(self, tmp_path):
        # state 0 is more likely, so no policy keeps "always action 1" credible
        g = GameInstance(1, 2, 2, 2, [0.7, 0.3], np.eye(2), (np.ones((2, 2)),))
        game_path, pol_path, out = tmp_path / "g.json", tmp_path / "p.json", tmp_path / "br.json"
        write_game(game_path, g, tie=FixedMap(table=(1, 1)))
        write_policies(pol_path, np.full((1, 2, 2), 0.5))
        assert run_cli(["exact", "best-response", "--game", game_path, "--policy", pol_path,
                        "--sender", 0, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["feasible"] is False
        assert doc["policy"] is None and doc["utility"] is None
        assert doc["action_map"] == [1, 1]

    @pytest.mark.parametrize("tie", [SenderFavoring(), FixedMap((0, 1, 2, 3) * 4)], ids=["posterior", "fixed-map"])
    def test_best_response_sender_out_of_range(self, tmp_path, capsys, tie):
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game(), tie=tie)
        write_policies(pol_path, two_block_equilibrium_policies())
        assert run_cli(["exact", "best-response", "--game", game_path, "--policy", pol_path,
                        "--sender", 2, "--out", tmp_path / "br.json"]) == 2
        assert "sender 2 out of range" in capsys.readouterr().err

    def test_best_response_policy_sender_count_checked(self, tmp_path, capsys):
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game())
        pol = two_block_equilibrium_policies()
        write_policies(pol_path, np.concatenate([pol, pol[:1]]))
        assert run_cli(["exact", "best-response", "--game", game_path, "--policy", pol_path,
                        "--sender", 2, "--out", tmp_path / "br.json"]) == 2
        assert "policy file has 3 senders, the game has 2" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "synthetic", "--n", 2])
        assert exc.value.code == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli(["exact", "verify", "--game", tmp_path / "absent.json",
                        "--policy", tmp_path / "nope.json", "--out", tmp_path / "r.json"]) == 3

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import persuade.cli
        import persuade.equilibria
        from persuade.lp import LpFailure

        def fail(*args, **kwargs):
            raise LpFailure("pivot cap reached")

        monkeypatch.setattr(persuade.equilibria, "best_response_exact", fail)
        monkeypatch.setattr(persuade.cli, "best_response_exact", fail)
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        write_policies(pol_path, two_block_equilibrium_policies())
        for what, extra in (("verify", []), ("best-response", ["--sender", 0])):
            code = run_cli(["exact", what, "--game", game_path, "--policy", pol_path,
                            "--out", tmp_path / f"{what}.json", *extra])
            assert code == 4
            assert "solver error: pivot cap reached" in capsys.readouterr().err

    def test_missing_config_field_names_it(self, tmp_path, capsys):
        game_path = tmp_path / "g.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 2, 2, 2, 1)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 1, "seed": 0}}))
        code = run_cli(["learn", "--game", game_path, "--config", cfg, "--out", tmp_path / "run"])
        assert code == 2
        assert "eg" in capsys.readouterr().err

    @pytest.mark.parametrize("local", [False, True], ids=["exact", "local"])
    def test_nan_policy_is_spec_error(self, tmp_path, capsys, local):
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        pol = two_block_equilibrium_policies()
        pol[1, 2] = [np.nan, 1.0, 0.0, 0.0]
        write_policies(pol_path, pol)
        code = run_cli(["exact", "verify", "--game", game_path, "--policy", pol_path,
                        "--out", tmp_path / "r.json", *(["--local"] if local else [])])
        assert code == 2
        assert "policy entries" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_nonfinite_eps_is_spec_error(self, tmp_path, capsys, monkeypatch, eps):
        import persuade.learning

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the eps was checked")

        monkeypatch.setattr(persuade.learning, "train", no_training)
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        write_policies(pol_path, two_block_equilibrium_policies())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_count": 100, "train": {"epochs": 1}, "eg": {"steps": 1}}))
        for args in (["exact", "verify", "--local", "--policy", pol_path, "--out", tmp_path / "r.json"],
                     ["learn", "--config", cfg, "--out", tmp_path / "run"]):
            assert run_cli([*args, "--game", game_path, "--eps", eps]) == 2
            assert "eps must be positive and finite" in capsys.readouterr().err

    def test_best_response_over_the_term_cap_fails_like_verify(self, tmp_path, capsys, monkeypatch):
        import persuade.lp

        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved before the term cap was checked")

        monkeypatch.setattr(persuade.lp, "solve_lps", no_lp)
        # 4 * 8^8 = 67 M terms, over the cap, and 8^7 opponent contexts per sender
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(8, 4, 8, 3, 0)))
        write_policies(pol_path, np.full((8, 4, 8), 1 / 8))
        errors = []
        for what, extra in (("verify", []), ("best-response", ["--sender", 0])):
            assert run_cli(["exact", what, "--game", game_path, "--policy", pol_path,
                            "--out", tmp_path / f"{what}.json", *extra]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "above the cap" in errors[0]

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "lottery"}, "unknown generator kind"),
        ({"kind": "quality-ads", "signals": 2}, "missing config field: firms"),
        ({"n": 2}, "missing config field: kind"),
    ])
    def test_bad_inline_generator_is_spec_error(self, tmp_path, capsys, spec, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": spec, "train": {"epochs": 1}, "eg": {"steps": 1}}))
        assert run_cli(["learn", "--config", cfg, "--out", tmp_path / "run"]) == 2
        assert message in capsys.readouterr().err

    def test_console_script_installed(self):
        out = subprocess.run([sys.executable, "-m", "persuade.cli", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "persuade" in out.stdout


def _commands(parser, path=()):
    """(command path, parser) for every leaf command, found by walking the subparsers."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _commands(sub, (*path, name))


def _option(parser, dest):
    return next((a for a in parser._actions if a.dest == dest), None)


def _with_tie_rule(path, rule):
    doc = json.loads(path.read_text())
    doc["tie_rule"] = rule
    path.write_text(json.dumps(doc))


def test_parser_is_built_once_and_parses_independently():
    parser = build_parser()
    assert build_parser() is parser
    gen = ["gen", "synthetic", "--n", "2", "--states", "2", "--signals", "2", "--actions", "2", "--out", "g.json"]
    first = parser.parse_args([*gen, "--tie", "sender-favoring"])
    second = parser.parse_args(gen)
    assert (first.tie, second.tie) == ("sender-favoring", None)


class TestTieRuleChoice:
    def test_tie_choices_are_the_rule_flags(self):
        flags = [rule.flag for rule in TIE_RULES.values() if rule.flag is not None]
        commands = dict(_commands(build_parser()))
        with_tie = {path for path, p in commands.items() if _option(p, "tie") is not None}
        # the commands that read a tie rule: every gen kind, every exact subcommand and learn
        assert with_tie == {("gen", kind) for kind in GENERATORS} | {
            ("exact", what) for what in ("best-response", "verify", "full-reveal")} | {("learn",)}
        for path in with_tie:
            action = _option(commands[path], "tie")
            assert list(action.choices) == flags
            assert action.default is None
        for flag in flags:
            assert _tie_rule(argparse.Namespace(tie=flag)).flag == flag

    def test_eps_only_where_read(self):
        commands = dict(_commands(build_parser()))
        assert {path for path, p in commands.items() if _option(p, "eps") is not None} == {
            ("exact", "verify"), ("learn",)}

    def test_commands_reject_flags_they_do_not_read(self, tmp_path):
        src = tmp_path / "bim.json"
        src.write_text(json.dumps({"u1": [[1, 0], [0, 1]], "u2": [[0, 1], [1, 1]]}))
        out = tmp_path / "g.json"
        reduce = ["reduce", "bimatrix", "--source", src, "--out", out]
        for extra in (["--tie", "sender-favoring", "--eps", 3], ["--tie", "lex"], ["--eps", 3]):
            with pytest.raises(SystemExit) as exc:
                run_cli(reduce + extra)
            assert exc.value.code == EXIT_USAGE
            assert not out.exists()
        assert run_cli(reduce) == 0
        assert "tie" not in json.loads((tmp_path / "g.json.manifest.json").read_text())["args"]

    def test_precedence(self):
        file_tie = FixedMap((0, 1, 0, 1))
        assert _tie_rule(argparse.Namespace(tie="lex"), file_tie, "sender-favoring") == Lexicographic()
        assert _tie_rule(argparse.Namespace(tie=None), file_tie, "sender-favoring") == SenderFavoring()
        assert _tie_rule(argparse.Namespace(tie=None), file_tie, None) == file_tie
        assert _tie_rule(argparse.Namespace(tie=None), None, None) == Lexicographic()

    def test_flag_beats_the_rule_in_the_game_file(self, tmp_path):
        # the reference profile is an equilibrium under the sender-favoring
        # rule and refuted under the lexicographic one
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game(), tie=Lexicographic())
        write_policies(pol_path, two_block_equilibrium_policies())
        verify = ["exact", "verify", "--game", game_path, "--policy", pol_path]
        assert run_cli(verify + ["--tie", "sender-favoring", "--out", tmp_path / "sf.json"]) == 0
        rep = read_report(tmp_path / "sf.json")
        assert rep.verdict == "exact"
        assert np.allclose(rep.utilities, [0.3, 0.3], atol=1e-9)
        assert run_cli(verify + ["--out", tmp_path / "file.json"]) == 10
        assert run_cli(verify + ["--tie", "lex", "--out", tmp_path / "lex.json"]) == 10

    def test_gen_writes_the_flag_else_lex(self, tmp_path):
        base = ["gen", "synthetic", "--n", 2, "--states", 2, "--signals", 2, "--actions", 2, "--seed", 1]
        assert run_cli(base + ["--out", tmp_path / "lex.json"]) == 0
        assert read_game(tmp_path / "lex.json")[1] == Lexicographic()
        assert run_cli(base + ["--tie", "sender-favoring", "--out", tmp_path / "sf.json"]) == 0
        assert read_game(tmp_path / "sf.json")[1] == SenderFavoring()

    @pytest.mark.parametrize("rule, message", [
        ({"kind": "fixed_map", "table": [2.9, 1.5, 1.2, 2.0]}, "tie_rule.table"),
        ({"kind": "fixed_map", "table": [10**30, 0, 0, 0]}, "tie_rule.table"),
        ({"kind": "fixed_map", "table": [10**309, 0, 0, 0]}, "tie_rule.table"),
        ({"kind": "fixed_map", "table": [0, 1, 2]}, "interpretation covers 3 joint signals"),
        ({"kind": "sender_favoring", "weights": [float("nan"), 1.0]}, "tie_rule.weights"),
        ({"kind": "sender_favoring", "weights": [10**400, 1.0]}, "tie_rule.weights"),
        ({"kind": "sender_favoring", "weights": [1.0]}, "one weight per sender"),
        ({"kind": "sender-favoring"}, "unknown tie rule kind"),
    ], ids=["fractional-table", "huge-entry", "float-overflowing-entry", "short-table", "nan-weight",
            "float-overflowing-weight", "one-weight", "flag-as-kind"])
    def test_malformed_rule_in_game_file_is_spec_error(self, tmp_path, capsys, rng, rule, message):
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        g = random_game(2, 2, 2, 4, rng)
        write_game(game_path, g)
        _with_tie_rule(game_path, rule)
        write_policies(pol_path, random_profile(g, rng))
        code = run_cli(["exact", "verify", "--game", game_path, "--policy", pol_path, "--out", tmp_path / "r.json"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, name", [
        ({"aux_hiden": [3], "architectures": ["delu"], "sample_count": 200}, "unknown config field: aux_hiden"),
        ({"generator": {"kind": "quality-ads", "firms": 2, "shock": 1.0}},
         "unknown quality-ads generator field: shock"),
    ], ids=["top-level", "generator"])
    def test_unknown_learn_config_field_is_spec_error(self, tmp_path, capsys, cfg, name):
        game_path, cfg_path = tmp_path / "g.json", tmp_path / "cfg.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 2, 2, 2, 1)))
        cfg_path.write_text(json.dumps({**cfg, "train": {"epochs": 1}, "eg": {"steps": 1, "restarts": 1}}))
        game = [] if "generator" in cfg else ["--game", game_path]
        assert run_cli(["learn", *game, "--config", cfg_path, "--out", tmp_path / "run"]) == 2
        assert name in capsys.readouterr().err


class TestLearnAndReport:
    def test_learn_report_pipeline(self, tmp_path):
        game_path = tmp_path / "g.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 2, 2, 2, 3)), tie=Lexicographic())
        cfg = {
            "architectures": ["relu"],
            "sample_count": 600,
            "train": {"epochs": 2, "batch_size": 128, "seed": 5},
            "eg": {"steps": 5, "restarts": 3, "seed": 6},
            "hidden": [10],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run_dir = tmp_path / "run"
        assert run_cli(["learn", "--game", game_path, "--config", cfg_path,
                        "--out", run_dir, "--eps", 0.01]) == 0
        results = json.loads((run_dir / "results.json").read_text())
        row = results["rows"][0]
        assert row["eps"] == 0.01
        assert os.path.exists(row["policy"])
        assert os.path.exists(row["restarts_csv"])
        manifest = json.loads((run_dir / "run.manifest.json").read_text())
        assert manifest["command"] == "learn"
        assert manifest["args"]["out"] == str(run_dir)     # --out as given: a re-run writes to the same place
        agg = tmp_path / "agg.csv"
        assert run_cli(["report", "--glob", str(run_dir / "results.json"), "--out", agg]) == 0
        lines = agg.read_text().strip().splitlines()
        assert lines[0].startswith("n_senders,states,signals,actions,arch")
        assert len(lines) == 2

    def test_learn_writes_loss_curves(self, tmp_path, monkeypatch):
        from persuade.learning import EgConfig, TrainConfig, find_local_ne, sample_dataset

        monkeypatch.delenv("PERSUADE_CACHE", raising=False)
        game = synthetic_instance(SyntheticSpec(2, 2, 2, 2, 4))
        game_path = tmp_path / "g.json"
        write_game(game_path, game, tie=Lexicographic())
        cfg = {
            "architectures": ["relu", "dnl"],
            "sample_count": 400,
            "train": {"epochs": 3, "batch_size": 64, "seed": 7},
            "eg": {"steps": 3, "restarts": 2, "seed": 8},
            "hidden": [6, 6, 6],
            "hyper_hidden": [4],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run_dir = tmp_path / "run"
        assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", run_dir]) == 0
        rows = json.loads((run_dir / "results.json").read_text())["rows"]
        assert [r["arch"] for r in rows] == ["relu", "dnl"]
        for row in rows:
            dataset = sample_dataset(game, 400, Lexicographic(), cfg["train"]["seed"])
            res = find_local_ne(game, TrainConfig(**cfg["train"]), EgConfig(**cfg["eg"]), Lexicographic(),
                                dataset=dataset, arch=row["arch"], hidden=(6, 6, 6), hyper_hidden=(4,))
            assert len(row["losses"]) == game.n_senders
            assert all(len(curve) == 3 for curve in row["losses"])
            assert row["losses"] == res.losses

    def test_three_architecture_comparison_on_didactic_game(self, tmp_path):
        from persuade.reference import didactic_game

        game_path = tmp_path / "didactic.json"
        write_game(game_path, didactic_game(), tie=Lexicographic())
        cfg = {
            "architectures": ["relu", "delu", "dnl"],
            "sample_count": 2500,
            "train": {"epochs": 6, "batch_size": 128, "seed": 43},
            "eg": {"steps": 12, "learning_rate": 0.1, "restarts": 10, "seed": 44},
            "hidden": [14, 14, 14],
            "hyper_hidden": [10],
            "aux_hidden": [10],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run_dir = tmp_path / "run"
        assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", run_dir]) == 0
        rows = {r["arch"]: r for r in json.loads((run_dir / "results.json").read_text())["rows"]}
        assert set(rows) == {"relu", "delu", "dnl"}
        assert rows["dnl"]["welfare"] >= rows["relu"]["welfare"] - 1e-12
        assert rows["dnl"]["welfare"] >= rows["delu"]["welfare"] - 1e-12
        assert rows["dnl"]["validation_mse"] < min(rows["relu"]["validation_mse"],
                                                   rows["delu"]["validation_mse"])
        assert all(r["eps"] == 0.005 for r in rows.values())    # flag default

    def test_reduce_rejects_non_binary_matrix(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"u1": [[0.5, 0], [0, 1]], "u2": [[0, 1], [1, 0]]}))
        assert run_cli(["reduce", "bimatrix", "--source", src, "--out", tmp_path / "out.json"]) == 2

    def test_report_ci_matches_reference_fixture(self, tmp_path):
        rows = []
        mses = [0.1, 0.2, 0.4]
        welfares = [1.0, 2.0, 3.0]
        for i in range(3):
            rows.append({
                "arch": "relu", "verified": True, "verdict": "epsilon_local",
                "welfare": welfares[i], "utilities": [0.0], "validation_mse": mses[i],
                "eps": 0.005, "restarts_csv": "", "policy": "",
                "dims": {"n_senders": 2, "states": 2, "signals": 2, "actions": 2},
            })
        src = tmp_path / "results.json"
        src.write_text(json.dumps({"format": "persuade-results", "game": "", "rows": rows}))
        agg = tmp_path / "agg.csv"
        assert run_cli(["report", "--glob", str(src), "--out", agg]) == 0
        _, line = agg.read_text().strip().splitlines()
        cells = line.split(",")
        mse_mean, mse_ci = float(cells[6]), float(cells[7])
        wf_mean, wf_ci = float(cells[8]), float(cells[9])
        assert mse_mean == pytest.approx(np.mean(mses))
        assert mse_ci == pytest.approx(1.96 * np.std(mses, ddof=1) / np.sqrt(3))
        assert wf_mean == pytest.approx(2.0)
        assert wf_ci == pytest.approx(1.96 * np.std(welfares, ddof=1) / np.sqrt(3))

    def test_empty_report_glob_is_spec_error(self, tmp_path):
        assert run_cli(["report", "--glob", str(tmp_path / "nothing-*.json"),
                        "--out", tmp_path / "agg.csv"]) == 2

    def test_dataset_cache_reuse(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERSUADE_CACHE", str(tmp_path / "cache"))
        g = synthetic_instance(SyntheticSpec(2, 2, 2, 2, 9))
        d1 = load_or_sample_dataset(g, 200, Lexicographic(), seed=1)
        files = os.listdir(tmp_path / "cache")
        assert len(files) == 1
        d2 = load_or_sample_dataset(g, 200, Lexicographic(), seed=1)
        assert np.array_equal(d1.inputs, d2.inputs)
        assert np.array_equal(d1.utilities, d2.utilities)
        assert os.listdir(tmp_path / "cache") == files

    @pytest.mark.parametrize("kind, fields", [
        ("synthetic", {"n": 2, "states": 2, "signals": 2, "actions": 2}),
        ("quality-ads", {"firms": 2, "shock_std": 0.5}),
    ])
    def test_inline_generator_matches_gen_then_learn(self, tmp_path, monkeypatch, kind, fields):
        # the config's generator entry and the gen flags name the same fields
        monkeypatch.delenv("PERSUADE_CACHE", raising=False)
        cfg = {
            "architectures": ["relu"],
            "sample_count": 300,
            "train": {"epochs": 2, "batch_size": 64, "seed": 3},
            "eg": {"steps": 3, "restarts": 2, "seed": 4},
            "hidden": [6],
        }
        flags = [x for name, value in fields.items() for x in (f"--{name.replace('_', '-')}", value)]
        game_path = tmp_path / "g.json"
        assert run_cli(["gen", kind, *flags, "--seed", 11, "--out", game_path]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", tmp_path / "a"]) == 0
        inline_path = tmp_path / "inline.json"
        inline_path.write_text(json.dumps({**cfg, "generator": {"kind": kind, "seed": 11, **fields}}))
        assert run_cli(["learn", "--config", inline_path, "--out", tmp_path / "b"]) == 0

        for name in ("policy-relu.json", "restarts-relu.csv", "net-relu-sender0.json", "net-relu-sender1.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        a, b = (json.loads((tmp_path / d / "results.json").read_text()) for d in "ab")
        assert a["game"] == str(game_path) and b["game"] == f"generator:{kind}"
        paths = ("policy", "restarts_csv")
        assert [{k: v for k, v in row.items() if k not in paths} for row in a["rows"]] == \
            [{k: v for k, v in row.items() if k not in paths} for row in b["rows"]]
