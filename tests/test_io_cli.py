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
    read_game,
    read_policies,
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
        write_game(path, g, tie=SenderFavoring())
        back, tie = read_game(path)
        assert np.array_equal(back.prior, g.prior)
        assert np.array_equal(back.receiver_utility, g.receiver_utility)
        for a, b in zip(back.sender_utilities, g.sender_utilities):
            assert np.array_equal(a, b)
        assert tie == SenderFavoring()

    def test_policy_file_exact(self, tmp_path, rng):
        pol = rng.dirichlet(np.ones(3), size=(2, 4))
        path = tmp_path / "p.json"
        write_policies(path, pol)
        assert np.array_equal(read_policies(path), pol)

    def test_tie_rules(self, tmp_path, rng):
        rules = (Lexicographic(), SenderFavoring(), FixedMap((0, 1, 2, 3)))
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
        assert json.loads(path.read_text()) == {
            "format": "persuade-report", "verdict": "refuted", "utilities": [0.1, 0.2], "max_improvement": 0.05,
            "samples": 100, "eps": 0.01, "witness_sender": 1, "witness_policy": [[0.5, 0.5], [0.5, 0.5]],
        }

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
        rep = json.loads((tmp_path / "r1.json").read_text())
        assert rep["verdict"] == "exact"
        assert np.allclose(rep["utilities"], [0.3, 0.3], atol=1e-9)

    def test_full_reveal_precondition_exit(self, tmp_path):
        V = np.array([[1.0, 1.0], [0.0, 1.0]])
        g = random_game(2, 2, 2, 2, np.random.default_rng(0))
        g = type(g)(2, g.prior, V, g.sender_utilities)
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

    def test_best_response_policy_row_is_the_incumbent(self, tmp_path):
        # an equilibrium row earns the best utility, 0.3, so it comes back as it was; from a
        # uniform row the search finds another policy of the same utility
        game_path, out = tmp_path / "g.json", tmp_path / "br.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        eq = two_block_equilibrium_policies()
        uniform = eq.copy()
        uniform[0] = 0.25
        policies = []
        for name, pol in (("eq", eq), ("uniform", uniform)):
            pol_path = tmp_path / f"{name}.json"
            write_policies(pol_path, pol)
            assert run_cli(["exact", "best-response", "--game", game_path, "--policy", pol_path,
                            "--sender", 0, "--out", out]) == 0
            doc = json.loads(out.read_text())
            assert doc["utility"] == pytest.approx(0.3, abs=1e-12)
            policies.append(np.reshape(doc["policy"], eq[0].shape))
        assert np.array_equal(policies[0], eq[0])
        assert not np.allclose(policies[1], eq[0]) and not np.allclose(policies[1], uniform[0])

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
        g = GameInstance(2, [0.7, 0.3], np.eye(2), (np.ones((2, 2)),))
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

    @pytest.mark.parametrize("sizes, message", [
        ({"n_senders": 3}, "n_senders is 3, but the file has 2 sender utilities"),
        ({"n_senders": 1}, "n_senders is 1, but the file has 2 sender utilities"),
        ({"states": 3}, "g.json: states is 3, but a utility array has 6 entries, not states x actions = 3 x 3"),
        ({"actions": 2}, "g.json: actions is 2, but a utility array has 6 entries, not states x actions = 2 x 2"),
        ({"states": 3, "actions": 2}, "receiver_utility must be (2, actions >= 1)"),
        ({"signals": 2.5}, "g.json: signals must be an integer, got 2.5"),
        ({"signals": True}, "g.json: signals must be an integer, got True"),
        ({"actions": "3"}, "g.json: actions must be an integer, got '3'"),
    ], ids=["more-senders", "fewer-senders", "states", "actions", "states-vs-prior", "signals-float", "signals-bool",
            "actions-string"])
    def test_game_file_sizes_must_match_its_arrays(self, tmp_path, capsys, rng, sizes, message):
        # the file of a 2-sender, 2-state, 3-action game, with some stated sizes changed
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        g = random_game(2, 2, 2, 3, rng)
        write_game(game_path, g)
        game_path.write_text(json.dumps({**json.loads(game_path.read_text()), **sizes}))
        write_policies(pol_path, random_profile(g, rng))
        code = run_cli(["exact", "verify", "--game", game_path, "--policy", pol_path, "--out", tmp_path / "r.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("sizes, message", [
        ({"signals": 3}, "p.json: policies has 8 entries, not n_senders x states x signals = 2 x 2 x 3"),
        ({"n_senders": 1}, "p.json: policies has 8 entries, not n_senders x states x signals = 1 x 2 x 2"),
        ({"states": 3}, "p.json: policies has 8 entries, not n_senders x states x signals = 2 x 3 x 2"),
        ({"states": 2.5}, "p.json: states must be an integer, got 2.5"),
        ({"n_senders": True}, "p.json: n_senders must be an integer, got True"),
    ], ids=["signals", "n_senders", "states", "states-float", "n_senders-bool"])
    def test_policy_file_sizes_must_match_its_array(self, tmp_path, capsys, rng, sizes, message):
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        g = random_game(2, 2, 2, 3, rng)
        write_game(game_path, g)
        write_policies(pol_path, random_profile(g, rng))
        pol_path.write_text(json.dumps({**json.loads(pol_path.read_text()), **sizes}))
        code = run_cli(["exact", "verify", "--game", game_path, "--policy", pol_path, "--out", tmp_path / "r.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "r.json").exists()

    def test_integral_float_sizes_read_as_integers(self, tmp_path, rng):
        # JSON writers may write a count as 2.0; it reads as the int 2
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        g = random_game(2, 2, 2, 3, rng)
        pol = random_profile(g, rng)
        write_game(game_path, g)
        write_policies(pol_path, pol)
        for path in (game_path, pol_path):
            doc = json.loads(path.read_text())
            path.write_text(json.dumps({k: float(v) if type(v) is int else v for k, v in doc.items()}))
        back, _ = read_game(game_path)
        assert type(back.signals) is int and (back.n_senders, back.states, back.signals) == (2, 2, 2)
        assert np.array_equal(back.receiver_utility, g.receiver_utility)
        assert np.array_equal(read_policies(pol_path), pol)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "synthetic", "--n", 2])
        assert exc.value.code == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli(["exact", "verify", "--game", tmp_path / "absent.json",
                        "--policy", tmp_path / "nope.json", "--out", tmp_path / "r.json"]) == 3

    def test_local_verify_samples_one_sender_games(self, tmp_path):
        # a one-sender game's eps-ball check draws deviations, and here one gains
        game_path, pol_path, out = tmp_path / "g.json", tmp_path / "p.json", tmp_path / "r.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(1, 3, 2, 3, 19)))
        write_policies(pol_path, np.random.default_rng(19).dirichlet(np.ones(2), size=(1, 3)))
        assert run_cli(["exact", "verify", "--local", "--game", game_path, "--policy", pol_path, "--out", out]) == 10
        doc = json.loads(out.read_text())
        assert (doc["verdict"], doc["samples"]) == ("refuted", 4000) and doc["max_improvement"] > 0.1

    @pytest.mark.parametrize("kind", ["game", "policy", "results", "config", "public", "bimatrix"])
    def test_non_object_json_is_spec_error(self, tmp_path, capsys, kind):
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        write_policies(pol_path, two_block_equilibrium_policies())
        bad = tmp_path / f"{kind}.json"
        out = tmp_path / "out"
        argv = {
            "game": ["exact", "verify", "--game", bad, "--policy", pol_path, "--out", out],
            "policy": ["exact", "verify", "--game", game_path, "--policy", bad, "--out", out],
            "results": ["report", "--glob", bad, "--out", out],
            "config": ["learn", "--game", game_path, "--config", bad, "--out", out],
            "public": ["reduce", "public", "--source", bad, "--out", out],
            "bimatrix": ["reduce", "bimatrix", "--source", bad, "--out", out],
        }[kind]
        # text that is not JSON names the file too, which `report --glob` over many files needs
        for text, message in (("[]", "expected a JSON object at the top level, got list"),
                              ('{"format": "persuade-game", }', "not valid JSON: Expecting property name enclosed "
                               "in double quotes: line 1 column 29 (char 28)")):
            bad.write_text(text)
            assert run_cli(argv) == 2
            assert capsys.readouterr().err == f"error: {bad}: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("kind, edit, message", [
        ("game", lambda d: d.pop("prior"), "missing field prior"),
        ("game", lambda d: d.pop("receiver_utility"), "missing field receiver_utility"),
        ("game", lambda d: d.pop("states"), "missing field states"),
        ("game", lambda d: d.update(sender_utilities=5), "sender_utilities must be a list, got 5"),
        ("game", lambda d: d.update(sender_utilities=[d["receiver_utility"], 5]),
         "sender_utilities[1] must be a list, got 5"),
        ("game", lambda d: d.update(prior=0.5), "prior must be a list, got 0.5"),
        ("policy", lambda d: d.pop("policies"), "missing field policies"),
        ("policy", lambda d: d.update(policies=1.0), "policies must be a list, got 1.0"),
    ], ids=["no-prior", "no-receiver-utility", "no-states", "int-sender-utilities", "int-sender-utility",
            "float-prior", "no-policies", "float-policies"])
    def test_input_file_errors_name_the_file_and_field(self, tmp_path, capsys, kind, edit, message):
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        write_policies(pol_path, two_block_equilibrium_policies())
        bad = {"game": game_path, "policy": pol_path}[kind]
        doc = json.loads(bad.read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        assert run_cli(["exact", "verify", "--game", game_path, "--policy", pol_path, "--out", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_game_and_policy_files_are_not_interchangeable(self, tmp_path, capsys):
        game_path, pol_path = tmp_path / "g.json", tmp_path / "p.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        write_policies(pol_path, two_block_equilibrium_policies())
        for game, policy, message in ((pol_path, pol_path, f"{pol_path} is not a persuade-game file"),
                                      (game_path, game_path, f"{game_path} is not a persuade-policy file")):
            assert run_cli(["exact", "verify", "--game", game, "--policy", policy, "--out", tmp_path / "r.json"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

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

    @staticmethod
    def _assert_eps_rejected(tmp_path, capsys, monkeypatch, eps):
        """`exact verify --local` and `learn` exit 2 on `eps`, before any training or output."""
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
            err = capsys.readouterr().err
            assert err.startswith("error: eps must be positive and finite") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["gen", "verify", "learn"])
    @pytest.mark.parametrize("seed", ["-3", "-1", "2.5", "seven"])
    def test_bad_seed_is_usage_error_naming_the_flag(self, tmp_path, capsys, command, seed):
        # a negative seed used to reach numpy ("expected non-negative integer", exit 2)
        # or to be blamed on `train.seed`, a config field the user never wrote
        game_path, pol_path, cfg = tmp_path / "g.json", tmp_path / "p.json", tmp_path / "cfg.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        write_policies(pol_path, two_block_equilibrium_policies())
        cfg.write_text(json.dumps({"sample_count": 100, "train": {"epochs": 1}, "eg": {"steps": 1}}))
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "synthetic", "--n", 2, "--states", 2, "--signals", 2, "--actions", 2],
            "verify": ["exact", "verify", "--local", "--game", game_path, "--policy", pol_path],
            "learn": ["learn", "--game", game_path, "--config", cfg],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--seed", seed, "--out", out])
        assert exc.value.code == EXIT_USAGE
        assert f"error: argument --seed: must be a non-negative integer, got '{seed}'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "g.json", "p.json"]

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_nonfinite_eps_is_spec_error(self, tmp_path, capsys, monkeypatch, eps):
        self._assert_eps_rejected(tmp_path, capsys, monkeypatch, eps)

    @pytest.mark.parametrize("eps", ["1.5", "1e308"])
    def test_eps_above_one_is_spec_error(self, tmp_path, capsys, monkeypatch, eps):
        # a sup-norm radius of 1 already reaches every policy; 1e308 would overflow the deviation draws
        self._assert_eps_rejected(tmp_path, capsys, monkeypatch, eps)

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
        ({"kind": "quality-ads", "firms": 2, "shock_std": float("nan")}, "shock_std must be a finite number"),
        ({"kind": "product-ads", "firms": 2, "shock_std": -2}, "shock_std must be a finite number"),
        ({"kind": "ride-hailing", "m": 1, "n": 1, "cost_levels": 0}, "cost_levels must be an integer of at least 1"),
        ({"kind": "product-ads", "firms": 1, "quality_levels": 22}, "quality_levels must be an integer from 1 to 21"),
        # each field is typed as `gen` types its flag, and the error names it
        ({"kind": "synthetic", "n": 2, "states": 2, "signals": 2, "actions": 2, "seed": 1.5},
         "generator.seed must be an integer of at least 0, got 1.5"),
        ({"kind": "synthetic", "n": 2, "states": 2, "signals": 2, "actions": 2, "seed": True},
         "generator.seed must be an integer of at least 0, got True"),
        ({"kind": "product-ads", "firms": 1, "quality_levels": 2.5},
         "generator.quality_levels must be an integer of at least 1, got 2.5"),
        ({"kind": "ride-hailing", "m": 1, "n": 1, "cost_levels": True},
         "generator.cost_levels must be an integer of at least 1, got True"),
        ({"kind": "quality-ads", "firms": 1, "shock_std": "1"}, "generator.shock_std must be a finite number, got '1'"),
        ({"kind": "ride-hailing", "m": 1, "n": 1, "payment_based": 1}, "generator.payment_based must be true or false, got 1"),
    ])
    def test_bad_inline_generator_is_spec_error(self, tmp_path, capsys, spec, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generator": spec, "train": {"epochs": 1}, "eg": {"steps": 1}}))
        assert run_cli(["learn", "--config", cfg, "--out", tmp_path / "run"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, value", [("quality-ads", "nan"), ("product-ads", "-2"), ("quality-ads", "inf")])
    def test_gen_rejects_a_bad_shock_std(self, tmp_path, capsys, kind, value):
        out = tmp_path / "g.json"
        assert run_cli(["gen", kind, "--firms", 2, "--shock-std", value, "--out", out]) == 2
        assert "shock_std must be a finite number of at least 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, flags, message", [
        ("ride-hailing", ["--m", 1, "--n", 1, "--cost-levels", 0], "cost_levels must be an integer of at least 1, got 0"),
        ("ride-hailing", ["--m", 1, "--n", 1, "--cost-levels", -1], "cost_levels must be an integer of at least 1, got -1"),
        ("product-ads", ["--firms", 1, "--quality-levels", 0], "quality_levels must be an integer from 1 to 21, got 0"),
        ("product-ads", ["--firms", 1, "--quality-levels", -2], "quality_levels must be an integer from 1 to 21, got -2"),
        ("product-ads", ["--firms", 1, "--quality-levels", 22], "quality_levels must be an integer from 1 to 21, got 22"),
    ])
    def test_gen_rejects_a_bad_size_field(self, tmp_path, capsys, kind, flags, message):
        out = tmp_path / "g.json"
        assert run_cli(["gen", kind, *flags, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

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

    def test_seed_only_where_read(self):
        commands = dict(_commands(build_parser()))
        assert {path for path, p in commands.items() if _option(p, "seed") is not None} == {
            ("gen", kind) for kind in GENERATORS} | {("exact", "verify"), ("learn",)}

    @staticmethod
    def _unseeded_commands(tmp_path):
        """(argv without --out, output path) of each command that draws no random number."""
        game_path, pol_path = tmp_path / "ref.json", tmp_path / "pol.json"
        write_game(game_path, two_block_game(), tie=SenderFavoring())
        write_policies(pol_path, two_block_equilibrium_policies())
        pub, bim, results = tmp_path / "pub.json", tmp_path / "bim.json", tmp_path / "results.json"
        pub.write_text(json.dumps({"k": 2, "prior": [0.4, 0.6], "gaps": [[0.5, -0.5], [-0.25, 0.75]],
                                   "u_plus": [[0.9, 0.1], [0.3, 0.8]], "u_minus": [[0.2, 0.6], [0.5, 0.25]]}))
        bim.write_text(json.dumps({"u1": [[1, 0], [0, 1]], "u2": [[0, 1], [1, 1]]}))
        row = {"arch": "relu", "welfare": 1.0, "validation_mse": 0.1,
               "dims": {"n_senders": 2, "states": 2, "signals": 2, "actions": 2}}
        results.write_text(json.dumps({"format": "persuade-results", "game": "", "rows": [row]}))
        return [
            (["exact", "best-response", "--game", game_path, "--policy", pol_path, "--sender", 0], tmp_path / "br.json"),
            (["exact", "full-reveal", "--game", game_path], tmp_path / "fr.json"),
            (["reduce", "public", "--source", pub], tmp_path / "pub-game.json"),
            (["reduce", "bimatrix", "--source", bim], tmp_path / "bim-game.json"),
            (["report", "--glob", results], tmp_path / "agg.csv"),
        ]

    def test_commands_reject_flags_they_do_not_read(self, tmp_path):
        def assert_usage_error(argv, out):
            with pytest.raises(SystemExit) as exc:
                run_cli([*argv, "--out", out])
            assert exc.value.code == EXIT_USAGE
            assert not out.exists() and not out.with_name(out.name + ".manifest.json").exists()

        commands = self._unseeded_commands(tmp_path)
        reduce, out = commands[3]
        for extra in (["--tie", "sender-favoring", "--eps", 3], ["--tie", "lex"], ["--eps", 3]):
            assert_usage_error(reduce + extra, out)
        for argv, out in commands:
            assert_usage_error([*argv, "--seed", 1], out)
        verify = ["exact", "verify", "--game", tmp_path / "ref.json", "--policy", tmp_path / "pol.json"]
        for extra in (["--eps", 0.01], ["--seed", 1], ["--eps", 0.01, "--seed", 1]):
            assert_usage_error(verify + extra, tmp_path / "r.json")
        assert run_cli(verify + ["--local", "--eps", 0.01, "--seed", 1, "--out", tmp_path / "r.json"]) == 0
        for argv, out in commands:
            assert run_cli([*argv, "--out", out]) == 0
            args = json.loads(out.with_name(out.name + ".manifest.json").read_text())["args"]
            assert "seed" not in args
            assert ("tie" in args) == (argv[0] == "exact")

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
        rep = json.loads((tmp_path / "sf.json").read_text())
        assert rep["verdict"] == "exact"
        assert np.allclose(rep["utilities"], [0.3, 0.3], atol=1e-9)
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
        # sender-favoring takes no weights: a weighted rule is refused, never read as unweighted
        ({"kind": "sender_favoring", "weights": [float("nan"), 1.0]}, "unknown sender_favoring tie_rule field: weights"),
        ({"kind": "sender_favoring", "weights": [10**400, 1.0]}, "unknown sender_favoring tie_rule field: weights"),
        ({"kind": "sender_favoring", "weights": [1.0]}, "unknown sender_favoring tie_rule field: weights"),
        ({"kind": "lexicographic", "table": [0, 1, 2, 3]}, "unknown lexicographic tie_rule field: table"),
        ({"kind": "fixed_map", "table": [0, 1, 2, 3], "weights": [1.0, 1.0]}, "unknown fixed_map tie_rule field: weights"),
        ({"kind": "sender-favoring"}, "unknown tie rule kind"),
    ], ids=["fractional-table", "huge-entry", "float-overflowing-entry", "short-table", "nan-weight",
            "float-overflowing-weight", "one-weight", "lex-with-table", "fixed-map-with-weights", "flag-as-kind"])
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


    @pytest.mark.parametrize("cfg, message", [
        ({"architectures": []}, "architectures must be a non-empty list of architecture names"),
        ({"architectures": "dnl"}, "architectures must be a non-empty list of architecture names"),
        ({"architectures": ["relu", "dnn"]}, "unknown architecture 'dnn'; expected relu, delu, or dnl"),
        # a repeated name would train twice, overwrite its files and count twice in `report`
        ({"architectures": ["relu", "dnl", "relu"]}, "architectures must name each architecture once, got ['relu', 'dnl', 'relu']"),
        ({"sample_count": 50.7}, "sample_count must be an integer of at least 1, got 50.7"),
        ({"sample_count": True}, "sample_count must be an integer of at least 1, got True"),
        ({"sample_count": 0}, "sample_count must be an integer of at least 1, got 0"),
        ({"architectures": ["relu"], "hidden": [0, 4]}, "hidden[0] must be an integer of at least 1, got 0"),
        ({"architectures": ["dnl"], "hidden": [4, 4, 4], "hyper_hidden": [0]},
         "hyper_hidden[0] must be an integer of at least 1, got 0"),
        ({"architectures": ["delu"], "hidden": [4], "aux_hidden": [0]},
         "aux_hidden[0] must be an integer of at least 1, got 0"),
        ({"hidden": 8}, "hidden must be a list of integers of at least 1, got 8"),
        ({"hidden": ["8"]}, "hidden[0] must be an integer of at least 1, got '8'"),
        ({"architectures": ["relu", "dnl"], "hidden": [8]},
         "lower_layers must be at least 1 and below the hidden layer count 1, got lower_layers 1"),
        ({"architectures": ["dnl"], "hidden": [4, 4, 4], "lower_layers": 3},
         "lower_layers must be at least 1 and below the hidden layer count 3, got lower_layers 3"),
        ({"architectures": ["relu", "dnl"], "hidden": [4, 4, 4], "lower_layers": 1.5},
         "lower_layers must be an integer of at least 1, got 1.5"),
        ({"architectures": ["dnl"], "hidden": [4, 4, 4], "lower_layers": True},
         "lower_layers must be an integer of at least 1, got True"),
        ({"architectures": ["relu", "delu"], "hidden": []}, "DeLU needs at least one hidden layer"),
        ({"eps": True}, "eps must be a finite number, got True"),
        ({"eps": "0.01"}, "eps must be a finite number, got '0.01'"),
        ({"eps": float("nan")}, "eps must be a finite number, got nan"),
        ({"eps": 2}, "eps must be positive and finite, at most 1, got 2.0"),
        ({"tie": "bogus"}, "unknown tie rule 'bogus'; expected one of lex, sender-favoring"),
    ], ids=["no-architectures", "architectures-string", "unknown-architecture", "repeated-architecture", "fractional-count", "bool-count", "zero-count",
            "zero-hidden", "zero-hyper-hidden", "zero-aux-hidden", "hidden-not-a-list", "string-width",
            "dnl-one-hidden-layer", "dnl-all-lower", "fractional-lower-layers", "bool-lower-layers", "delu-no-hidden",
            "bool-eps", "string-eps", "nan-eps", "eps-above-one", "unknown-tie"])
    def test_bad_learn_config_value_is_spec_error(self, tmp_path, capsys, cfg, message):
        game_path, cfg_path = tmp_path / "g.json", tmp_path / "cfg.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 2, 2, 2, 1)))
        cfg_path.write_text(json.dumps({"sample_count": 50, **cfg, "train": {"epochs": 1}, "eg": {"steps": 1, "restarts": 1}}))
        assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        # every config value, the architectures' shape rules included, is checked before any output is written
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, fields, message", [
        ("train", {"epochs": True}, "train.epochs must be an integer of at least 1, got True"),
        ("eg", {"restarts": True}, "eg.restarts must be an integer of at least 1, got True"),
        ("train", {"seed": 1.5}, "train.seed must be an integer of at least 0, got 1.5"),
        ("eg", {"seed": 1.5}, "eg.seed must be an integer of at least 0, got 1.5"),
        ("train", {"batch_size": 0}, "train.batch_size must be an integer of at least 1, got 0"),
        ("eg", {"steps": 2.5}, "eg.steps must be an integer of at least 1, got 2.5"),
        ("train", {"epochs": "3"}, "train.epochs must be an integer of at least 1, got '3'"),
        ("train", {"epoch": 1}, "unknown train field: epoch"),
        ("eg", {"step": 1}, "unknown eg field: step"),
        ("train", {"learning_rate": True}, "train.learning_rate must be a finite number, got True"),
        ("train", {"eps_adam": True}, "unknown train field: eps_adam"),
        ("eg", {"learning_rate": True}, "eg.learning_rate must be a finite number, got True"),
        ("train", {"learning_rate": "0.01"}, "train.learning_rate must be a finite number, got '0.01'"),
        ("eg", {"learning_rate": "0.1"}, "eg.learning_rate must be a finite number, got '0.1'"),
        # Adam's constants are module constants of `learning`, not config fields
        ("train", {"beta1": float("inf")}, "unknown train field: beta1"),
        ("train", {"beta2": 0.999}, "unknown train field: beta2"),
    ], ids=["bool-epochs", "bool-restarts", "fractional-train-seed", "fractional-eg-seed", "zero-batch",
            "fractional-steps", "string-epochs", "train-typo", "eg-typo", "bool-train-rate", "bool-adam-eps",
            "bool-eg-rate", "string-train-rate", "string-eg-rate", "inf-beta1", "default-beta2"])
    def test_bad_train_or_eg_field_is_spec_error(self, tmp_path, capsys, section, fields, message):
        game_path, cfg_path = tmp_path / "g.json", tmp_path / "cfg.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 2, 2, 2, 1)))
        cfg = {"sample_count": 50, "train": {"epochs": 1}, "eg": {"steps": 1, "restarts": 1}}
        cfg[section] = {**cfg[section], **fields}
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("game", [0, 5, True, 2.0], ids=["zero", "five", "true", "float"])
    def test_config_game_must_be_a_path(self, tmp_path, capsys, monkeypatch, game):
        # `open` takes an integer or a bool as a file descriptor: 0 would read the game from stdin
        import persuade.cli
        monkeypatch.setattr(persuade.cli, "read_game", lambda path: pytest.fail(f"read_game({path!r})"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"game": game, "train": {"epochs": 1}, "eg": {"steps": 1, "restarts": 1}}))
        assert run_cli(["learn", "--config", cfg_path, "--out", tmp_path / "run"]) == 2
        assert capsys.readouterr().err == f"error: game must be a game file path, got {game!r}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, value", [
        ("train", [["epochs", 1]]),
        ("train", 5),
        ("eg", [["steps", 1], ["restarts", 1]]),
        ("eg", "steps"),
        ("generator", 5),
        ("generator", ["kind"]),
    ], ids=["train-pairs", "train-int", "eg-pairs", "eg-string", "generator-int", "generator-list"])
    def test_config_sections_must_be_objects(self, tmp_path, capsys, section, value):
        cfg = {"generator": {"kind": "synthetic", "n": 2, "states": 2, "signals": 2, "actions": 2},
               "sample_count": 50, "train": {"epochs": 1}, "eg": {"steps": 1, "restarts": 1}}
        cfg[section] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["learn", "--config", cfg_path, "--out", tmp_path / "run"]) == 2
        assert capsys.readouterr().err == f"error: {section} must be a JSON object, got {value!r}\n"
        assert not (tmp_path / "run").exists()

    def test_integral_float_counts_and_seeds_are_integers(self, tmp_path):
        game_path, cfg_path = tmp_path / "g.json", tmp_path / "cfg.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 2, 2, 2, 1)))
        runs = []
        for number in (int, float):
            cfg = {"architectures": ["relu"], "hidden": [4], "sample_count": 60,
                   "train": {"epochs": number(2), "batch_size": number(16), "seed": number(1)},
                   "eg": {"steps": number(2), "restarts": number(2), "seed": number(2)}}
            cfg_path.write_text(json.dumps(cfg))
            run_dir = tmp_path / f"run-{number.__name__}"
            assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", run_dir]) == 0
            runs.append((run_dir / "results.json").read_text().replace(str(run_dir), ""))
        assert runs[0] == runs[1]

    def test_integral_float_sample_count_is_a_count(self, tmp_path):
        game_path, cfg_path = tmp_path / "g.json", tmp_path / "cfg.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 2, 2, 2, 1)))
        runs = []
        for count in (60, 60.0):
            cfg = {"architectures": ["relu"], "hidden": [4], "sample_count": count,
                   "train": {"epochs": 1, "seed": 1}, "eg": {"steps": 1, "restarts": 1, "seed": 2}}
            cfg_path.write_text(json.dumps(cfg))
            run_dir = tmp_path / f"run-{count!r}"
            assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", run_dir]) == 0
            runs.append((run_dir / "results.json").read_text().replace(str(run_dir), ""))
        assert runs[0] == runs[1]

    def test_integral_float_generator_fields_are_integers(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        runs = []
        for number in (int, float):
            spec = {"kind": "synthetic", "n": 2, "states": number(2), "signals": 2, "actions": 2, "seed": number(3)}
            cfg_path.write_text(json.dumps({"generator": spec, "architectures": ["relu"], "hidden": [4],
                                            "sample_count": 60, "train": {"epochs": 1, "seed": 1},
                                            "eg": {"steps": 1, "restarts": 1, "seed": 2}}))
            run_dir = tmp_path / f"run-{number.__name__}"
            assert run_cli(["learn", "--config", cfg_path, "--out", run_dir]) == 0
            runs.append((run_dir / "results.json").read_text().replace(str(run_dir), ""))
        assert runs[0] == runs[1]

    def test_seed_flag_sets_both_section_seeds(self, tmp_path):
        game_path, cfg_path = tmp_path / "g.json", tmp_path / "cfg.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 2, 2, 2, 1)))
        runs = []
        for seeds, flag in (((1, 2), ["--seed", 9]), ((9, 9), [])):
            cfg_path.write_text(json.dumps({"architectures": ["relu"], "hidden": [4], "sample_count": 60,
                                            "train": {"epochs": 2, "seed": seeds[0]},
                                            "eg": {"steps": 2, "restarts": 2, "seed": seeds[1]}}))
            run_dir = tmp_path / f"run-{len(flag)}"
            assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", run_dir, *flag]) == 0
            runs.append((run_dir / "results.json").read_text().replace(str(run_dir), ""))
        assert runs[0] == runs[1]


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

    def test_diverged_training_is_spec_error(self, tmp_path, capsys):
        game_path = tmp_path / "g.json"
        write_game(game_path, synthetic_instance(SyntheticSpec(2, 3, 2, 3, 1)), tie=Lexicographic())
        cfg = {
            "architectures": ["relu"],
            "sample_count": 300,
            "train": {"epochs": 3, "learning_rate": 1e6, "seed": 5},
            "eg": {"steps": 1, "restarts": 1, "seed": 6},
            "hidden": [8],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["learn", "--game", game_path, "--config", cfg_path, "--out", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at epoch ") and err.count("\n") == 1

    def test_learn_writes_loss_curves(self, tmp_path):
        from persuade.learning import EgConfig, TrainConfig, find_local_ne, sample_dataset

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

    def test_reduce_public_k_must_match_gaps(self, tmp_path, capsys):
        doc = {"k": 2, "prior": [0.4, 0.6], "gaps": [[0.5, -0.5], [-0.25, 0.75]],
               "u_plus": [[0.9, 0.1], [0.3, 0.8]], "u_minus": [[0.2, 0.6], [0.5, 0.25]]}
        src = tmp_path / "pub.json"
        src.write_text(json.dumps(doc))
        assert run_cli(["reduce", "public", "--source", src, "--out", tmp_path / "ok.json"]) == 0
        capsys.readouterr()
        src.write_text(json.dumps({**doc, "k": 3}))
        assert run_cli(["reduce", "public", "--source", src, "--out", tmp_path / "bad.json"]) == 2
        assert "k is 3, but gaps has 2 rows" in capsys.readouterr().err
        assert not (tmp_path / "bad.json").exists()

    def test_reduce_public_uses_the_default_params(self, tmp_path):
        doc = {"k": 2, "prior": [0.4, 0.6], "gaps": [[0.5, -0.5], [-0.25, 0.75]],
               "u_plus": [[0.9, 0.1], [0.3, 0.8]], "u_minus": [[0.2, 0.6], [0.5, 0.25]]}
        src, out = tmp_path / "pub.json", tmp_path / "pub-game.json"
        src.write_text(json.dumps(doc))
        for flag in ("--C", "--N", "--M"):
            with pytest.raises(SystemExit) as exc:
                run_cli(["reduce", "public", "--source", src, flag, 2.0, "--out", out])
            assert exc.value.code == EXIT_USAGE
            assert not out.exists()
        assert run_cli(["reduce", "public", "--source", src, "--out", out]) == 0
        sidecar = json.loads(out.with_name(out.name + ".sidecar.json").read_text())
        assert sidecar["params"] == {"C": 2.0**5, "N": 2.0**4, "M": 2.0**4 / (2.0**4 - 1)}
        assert set(json.loads(out.with_name(out.name + ".manifest.json").read_text())["args"]) == {
            "command", "kind", "source", "out"}

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

    def test_report_writes_one_csv_per_axis(self, tmp_path):
        shapes = [((2, 2, 2, 2), "relu"), ((2, 3, 2, 2), "relu"), ((2, 3, 2, 2), "dnl"), ((2, 3, 3, 4), "relu")]
        rows = [{"arch": arch, "welfare": 1.0, "validation_mse": 0.1,
                 "dims": dict(zip(("n_senders", "states", "signals", "actions"), dims))} for dims, arch in shapes]
        src, agg = tmp_path / "results.json", tmp_path / "agg.csv"
        src.write_text(json.dumps({"format": "persuade-results", "game": "", "rows": rows}))
        assert run_cli(["report", "--glob", src, "--out", agg]) == 0
        stats = "arch,count,mse_mean,mse_ci95,welfare_mean,welfare_ci95"
        # groups: (states, arch) 2-relu, 3-relu, 3-dnl; (signals, arch) 2-relu, 2-dnl, 3-relu;
        # (actions, arch) 2-relu, 2-dnl, 4-relu
        for path, head, groups in ((agg, "n_senders,states,signals,actions", 4),
                                   (tmp_path / "agg.csv.by-states.csv", "states", 3),
                                   (tmp_path / "agg.csv.by-signals.csv", "signals", 3),
                                   (tmp_path / "agg.csv.by-actions.csv", "actions", 3)):
            lines = path.read_text().splitlines()
            assert lines[0] == f"{head},{stats}" and len(lines) == 1 + groups
        counts = [line.split(",")[2] for line in (tmp_path / "agg.csv.by-states.csv").read_text().splitlines()[1:]]
        assert counts == ["1", "1", "2"]     # sorted by (states, arch): 2-relu, 3-dnl, 3-relu

    def test_empty_report_glob_is_spec_error(self, tmp_path):
        assert run_cli(["report", "--glob", str(tmp_path / "nothing-*.json"),
                        "--out", tmp_path / "agg.csv"]) == 2

    @pytest.mark.parametrize("doc", [{"format": "persuade-results", "game": "", "rows": []},
                                     {"format": "persuade-policy", "rows": [{"arch": "relu"}]}],
                             ids=["no-rows", "other-format"])
    def test_report_without_result_rows_is_spec_error(self, tmp_path, capsys, doc):
        src, agg = tmp_path / "results.json", tmp_path / "agg.csv"
        src.write_text(json.dumps(doc))
        assert run_cli(["report", "--glob", src, "--out", agg]) == 2
        assert capsys.readouterr().err == "error: matched files contain no result rows\n"
        assert not agg.exists()

    @pytest.mark.parametrize("rows, message", [
        (None, "missing field rows"),
        ({"arch": "relu"}, "rows must be a list, got {'arch': 'relu'}"),
        (["relu"], "rows[0] must be an object, got 'relu'"),
        ([{"arch": "relu", "welfare": 1.0, "validation_mse": 0.1}], "missing field rows[0].dims"),
        ([{"arch": "relu", "welfare": 1.0, "dims": {}}], "missing field rows[0].validation_mse"),
        ([{"arch": "relu", "welfare": 1.0, "validation_mse": 0.1, "dims": [2, 2, 2, 2]}],
         "rows[0].dims must be an object, got [2, 2, 2, 2]"),
        ([{"arch": "relu", "welfare": 1.0, "validation_mse": 0.1,
           "dims": {"n_senders": 2, "states": 2, "signals": 2}}], "missing field rows[0].dims.actions"),
    ], ids=["no-rows", "rows-object", "row-string", "row-without-dims", "row-without-mse", "dims-list",
            "dims-without-actions"])
    def test_malformed_result_rows_name_the_file_and_field(self, tmp_path, capsys, rows, message):
        src, agg = tmp_path / "results.json", tmp_path / "agg.csv"
        doc = {"format": "persuade-results", "game": ""}
        src.write_text(json.dumps(doc if rows is None else {**doc, "rows": rows}))
        assert run_cli(["report", "--glob", src, "--out", agg]) == 2
        assert capsys.readouterr().err == f"error: {src}: {message}\n"
        assert not agg.exists()

    @pytest.mark.parametrize("kind, fields", [
        ("synthetic", {"n": 2, "states": 2, "signals": 2, "actions": 2}),
        ("quality-ads", {"firms": 2, "shock_std": 0.5}),
    ])
    def test_inline_generator_matches_gen_then_learn(self, tmp_path, kind, fields):
        # the config's generator entry and the gen flags name the same fields
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
