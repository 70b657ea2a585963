import numpy as np
import pytest

from persuade.equilibria import best_response_exact, best_response_fixed_interpretation
from persuade.game import (
    GameInstance,
    Lexicographic,
    ex_ante_utilities_fixed_interpretation,
)
from persuade.reductions import (
    BimatrixGame,
    PublicPersuasionInstance,
    bimatrix_to_persuasion,
    pub_sender_utility,
    public_to_best_response,
    reduced_action_values,
    reduced_action_values_closed_form,
)

from conftest import product_weights

LEX = Lexicographic()


def random_pub(k, states, rng):
    return PublicPersuasionInstance(
        prior=rng.dirichlet(np.ones(states)),
        gaps=rng.uniform(-1, 1, (k, states)),
        u_plus=rng.uniform(0, 1, (k, states)),
        u_minus=rng.uniform(0, 1, (k, states)),
    )


class TestPublicReduction:
    def test_dimensions(self, rng):
        pub = random_pub(3, 3, rng)
        game, pi2 = public_to_best_response(pub)
        assert game.states == 6 and game.actions == 7 and game.signals == 3
        assert game.receiver_utility.shape == (6, 7)
        assert pi2.shape == (6, 3)
        assert np.allclose(pi2.sum(axis=1), 1.0)

    def test_closed_forms_on_random_beliefs(self, rng):
        pub = random_pub(3, 4, rng)
        game, pi2 = public_to_best_response(pub)
        for _ in range(100):
            x = rng.dirichlet(np.ones(game.states))
            tj = int(rng.integers(pub.k))
            direct = reduced_action_values(game, pi2, x, tj)
            closed = reduced_action_values_closed_form(pub, x, tj)
            assert np.allclose(direct, closed, atol=1e-12)
            assert direct[2 * tj + 1] == 0.0      # the matched minus-action scores exactly zero

    def test_default_constants(self, rng):
        # C = k^5, N = k^4 and M = N / (N - 1), recorded in the game and carried by its utilities
        for k in (2, 3, 4):
            game, _ = public_to_best_response(random_pub(k, 3, rng))
            n = float(k**4)
            assert game.meta["params"] == {"C": float(k**5), "N": n, "M": n / (n - 1)}
            assert np.all(game.receiver_utility[:3, -1] == n)
            assert np.all(game.sender_utilities[0][:, -1] == -float(k**5))

    def test_prior_split(self, rng):
        pub = random_pub(2, 3, rng)
        game, _ = public_to_best_response(pub)
        assert np.allclose(game.prior[:3], pub.prior / 2)
        assert np.allclose(game.prior[3:], 1 / 4)


    @pytest.mark.parametrize("field", ["prior", "gaps", "u_plus", "u_minus"])
    def test_nan_rejected(self, rng, field):
        pub = random_pub(2, 3, rng)
        fields = {name: np.array(getattr(pub, name)) for name in ("prior", "gaps", "u_plus", "u_minus")}
        fields[field].flat[0] = np.nan
        with pytest.raises(ValueError):
            PublicPersuasionInstance(**fields)

    def test_k_is_read_from_gaps(self, rng):
        pub = random_pub(3, 2, rng)
        assert (pub.k, pub.states) == (3, 2)
        with pytest.raises(TypeError, match="k"):
            PublicPersuasionInstance(k=3, prior=pub.prior, gaps=pub.gaps, u_plus=pub.u_plus, u_minus=pub.u_minus)

    @pytest.mark.parametrize("field, shape", [("gaps", (2,)), ("gaps", (2, 3)), ("gaps", (0, 2)),
                                              ("u_plus", (2, 2)), ("u_minus", (3, 3))])
    def test_arrays_must_share_one_k_by_states_shape(self, rng, field, shape):
        pub = random_pub(3, 2, rng)
        fields = {name: getattr(pub, name) for name in ("prior", "gaps", "u_plus", "u_minus")}
        fields[field] = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"^{field} must be \(k, states\)"):
            PublicPersuasionInstance(**fields)


class TestPubSenderUtility:
    def test_nan_scheme_rejected(self, rng):
        pub = random_pub(2, 2, rng)
        with pytest.raises(ValueError, match="distributions"):
            pub_sender_utility(pub, np.array([[np.nan, 1.0], [0.5, 0.5]]))

    def test_uninformative_all_plus(self, rng):
        k, states = 3, 4
        pub = PublicPersuasionInstance(
            prior=rng.dirichlet(np.ones(states)),
            gaps=np.full((k, states), 1.0),
            u_plus=rng.uniform(0, 1, (k, states)),
            u_minus=rng.uniform(0, 1, (k, states)),
        )
        scheme = np.full((states, 2), 0.5)
        expect = float(np.mean([pub.prior @ pub.u_plus[j] for j in range(k)]))
        assert pub_sender_utility(pub, scheme) == pytest.approx(expect, abs=1e-12)

    def test_full_revelation_hand_case(self):
        pub = PublicPersuasionInstance(
            prior=np.array([0.4, 0.6]),
            gaps=np.array([[0.5, -0.5], [-0.25, 0.75]]),
            u_plus=np.array([[0.9, 0.1], [0.3, 0.8]]),
            u_minus=np.array([[0.2, 0.6], [0.5, 0.25]]),
        )
        scheme = np.eye(2)
        # point-mass posteriors: receiver j takes + iff gaps[j, w] >= 0
        expect = 0.4 * (0.9 + 0.5) / 2 + 0.6 * (0.6 + 0.8) / 2
        assert pub_sender_utility(pub, scheme) == pytest.approx(expect, abs=1e-12)

    def test_single_receiver_matches_exact_best_response(self, rng):
        for trial in range(5):
            pub = random_pub(1, 2, rng)
            game = GameInstance(
                3, pub.prior,
                np.stack([pub.gaps[0], np.zeros(2)], axis=1),
                (np.stack([pub.u_plus[0], pub.u_minus[0]], axis=1),),
            )
            br = best_response_exact(game, 0, [], LEX)
            assert pub_sender_utility(pub, br.policy) == pytest.approx(br.utility, abs=1e-9)
            for _ in range(200):
                scheme = rng.dirichlet(np.ones(3), size=2)
                assert pub_sender_utility(pub, scheme) <= br.utility + 1e-9


class TestBimatrixReduction:
    def test_payoff_identity(self, rng):
        bg = BimatrixGame(u1=rng.integers(0, 2, (3, 3)), u2=rng.integers(0, 2, (3, 3)))
        game, amap = bimatrix_to_persuasion(bg)
        for _ in range(100):
            pol = rng.dirichlet(np.ones(3), size=(2, 2))
            got = ex_ante_utilities_fixed_interpretation(game, pol, amap)
            x1, x2 = pol[0, 1], pol[1, 1]
            expect = 0.5 * np.array([x1 @ bg.u1 @ x2, x1 @ bg.u2 @ x2])
            assert np.allclose(got, expect, atol=1e-12)

    def test_state0_contributes_nothing(self, rng):
        bg = BimatrixGame(u1=rng.integers(0, 2, (2, 2)), u2=rng.integers(0, 2, (2, 2)))
        game, amap = bimatrix_to_persuasion(bg)
        table = np.asarray(amap.table)
        pol = rng.dirichlet(np.ones(2), size=(2, 2))
        q = product_weights(game.prior, pol)
        contribution = q[np.arange(q.shape[0]), 0] * game.sender_utilities[0][0, table]
        assert np.all(contribution == 0.0)

    def test_coordination_game_pure_equilibria(self):
        bg = BimatrixGame(u1=np.eye(2), u2=np.eye(2))
        game, amap = bimatrix_to_persuasion(bg)
        for s in (0, 1):
            pol = np.zeros((2, 2, 2))
            pol[:, :, s] = 1.0
            base = ex_ante_utilities_fixed_interpretation(game, pol, amap)
            for j in range(2):
                br = best_response_fixed_interpretation(game, j, [pol[1 - j]], amap)
                assert br.utility <= base[j] + 1e-9

    def test_all_ones_constant_half(self, rng):
        bg = BimatrixGame(u1=np.ones((2, 2)), u2=np.ones((2, 2)))
        game, amap = bimatrix_to_persuasion(bg)
        for _ in range(20):
            pol = rng.dirichlet(np.ones(2), size=(2, 2))
            got = ex_ante_utilities_fixed_interpretation(game, pol, amap)
            assert np.allclose(got, 0.5, atol=1e-12)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BimatrixGame(u1=np.full((2, 2), 0.5), u2=np.zeros((2, 2)))
