import math
from itertools import combinations

import numpy as np
import pytest

from tsxplain.errors import ConfigError, DataError
from tsxplain.itshap import (
    ExplainerConfig,
    ImportanceMatrix,
    aggregate_by_class,
    background_matrix,
    cell_players,
    explain_patient,
    explain_step,
    shap_kernel_weight,
    shapley_values,
    timestep_players,
)
from tsxplain.model import TrainedModel, init_params, schema_fingerprint
from tsxplain.numerics import RngStream

from conftest import small_schema, toy_cohort
from oracles import Coalition, perturb


def permutation_shapley(value_fn, m):
    """Exact Shapley values by averaging marginal contributions over all
    subsets (weighted permutation form)."""
    phi = np.zeros(m)
    others = list(range(m))
    for i in range(m):
        rest = [j for j in others if j != i]
        for s in range(m):
            coeff = math.factorial(s) * math.factorial(m - 1 - s) / math.factorial(m)
            for subset in combinations(rest, s):
                z = np.zeros(m, dtype=bool)
                z[list(subset)] = True
                v_without = float(value_fn(z[None])[0])
                z[i] = True
                v_with = float(value_fn(z[None])[0])
                phi[i] += coeff * (v_with - v_without)
    return phi


def make_model(F=3, H=4, seed=0, use_attention=False) -> TrainedModel:
    gru, att = init_params(F, H, RngStream(seed), use_attention)
    if att is not None:
        # attention initializes to zero; tests want a nontrivial matrix
        gen = RngStream(seed).child(7).generator()
        att.W = gen.normal(scale=0.4, size=att.W.shape)
        att.b = gen.normal(scale=0.1, size=att.b.shape)
    return TrainedModel(
        gru=gru, attention=att, schema_fingerprint=schema_fingerprint(small_schema(F))
    )


class TestBackground:
    def test_all_observed_mean(self):
        c = toy_cohort([(None, 6), (None, 6), (None, 6)], F=3, T=6, seed=1)
        B = background_matrix(c)
        X, M, _, _ = c.stacked()
        assert np.abs(B - X.mean(axis=0)).max() < 1e-12

    def test_unobserved_cell_feature_fallback(self):
        c = toy_cohort([(None, 6), (None, 6)], F=3, T=6, seed=2)
        for p in c.patients:
            p.M[1, 2] = 0.0
            p.X[1, 2] = 0.0
        B = background_matrix(c)
        X, M, _, _ = c.stacked()
        observed = X[:, 1, :][M[:, 1, :] == 1.0]
        assert abs(B[1, 2] - observed.mean()) < 1e-12

    def test_never_observed_feature_zero(self):
        c = toy_cohort([(None, 6)], F=3, T=6, seed=3)
        c.patients[0].M[2, :] = 0.0
        c.patients[0].X[2, :] = 0.0
        B = background_matrix(c)
        assert np.array_equal(B[2], np.zeros(6))

    def test_empty_cohort(self):
        with pytest.raises(DataError):
            background_matrix(toy_cohort([]))


class TestPlayersAndPerturb:
    def test_timestep_players(self):
        assert timestep_players(3) == (0, 1, 2)

    def test_cell_players_respect_mask(self):
        M = np.ones((2, 4))
        M[0, 1] = 0.0
        players = cell_players(M, 3)
        assert (0, 1) not in players
        assert len(players) == 5
        # tau-major ordering
        assert players == ((0, 0), (1, 0), (1, 1), (0, 2), (1, 2))

    def test_full_coalition_identity(self):
        gen = RngStream(4).generator()
        X = gen.normal(size=(2, 4))
        M = np.ones((2, 4))
        B = gen.normal(size=(2, 4))
        players = cell_players(M, 3)
        co = Coalition(z=np.ones(len(players), dtype=bool), players=players, mode="cell")
        assert np.array_equal(perturb(X, M, co, 3, B), X[:, :3])

    def test_empty_coalition_background(self):
        gen = RngStream(5).generator()
        X = gen.normal(size=(2, 4))
        M = np.ones((2, 4))
        B = gen.normal(size=(2, 4))
        players = timestep_players(3)
        co = Coalition(z=np.zeros(3, dtype=bool), players=players, mode="timestep")
        assert np.array_equal(perturb(X, M, co, 3, B), B[:, :3])

    def test_hand_mixed_coalition(self):
        X = np.arange(8.0).reshape(2, 4)
        M = np.ones((2, 4))
        B = np.full((2, 4), -1.0)
        players = ((0, 0), (1, 0), (0, 1), (1, 1))
        co = Coalition(
            z=np.array([True, False, False, True]), players=players, mode="cell"
        )
        out = perturb(X, M, co, 2, B)
        assert np.array_equal(out, [[0.0, -1.0], [-1.0, 5.0]])

    def test_length_mismatch(self):
        co = Coalition(z=np.ones(2, dtype=bool), players=(0, 1, 2), mode="timestep")
        with pytest.raises(DataError):
            perturb(np.ones((2, 4)), np.ones((2, 4)), co, 3, np.zeros((2, 4)))


class TestKernelWeight:
    def test_two_player_interior(self):
        assert shap_kernel_weight(2, 1) == 0.5

    def test_degenerate_infinite(self):
        assert shap_kernel_weight(5, 0) == float("inf")
        assert shap_kernel_weight(5, 5) == float("inf")

    def test_symmetry(self):
        for m in (3, 6, 9):
            for s in range(1, m):
                assert shap_kernel_weight(m, s) == pytest.approx(
                    shap_kernel_weight(m, m - s)
                )

    def test_closed_form_m4(self):
        assert shap_kernel_weight(4, 2) == pytest.approx(3 / (6 * 2 * 2))


class TestShapleyExact:
    def test_matches_permutation_oracle(self):
        gen = RngStream(6).generator()
        m = 7
        w_lin = gen.normal(size=m)
        pairs = [(0, 1), (2, 3), (4, 6), (1, 5)]
        w_pair = gen.normal(size=len(pairs))

        def value(Z):
            Zf = Z.astype(float)
            out = Zf @ w_lin
            for k, (i, j) in enumerate(pairs):
                out += w_pair[k] * Zf[:, i] * Zf[:, j]
            return out

        cfg = ExplainerConfig(exact_threshold=12)
        phi, empty, full = shapley_values(value, m, cfg)
        oracle = permutation_shapley(value, m)
        assert np.abs(phi - oracle).max() < 1e-8

    def test_local_accuracy(self):
        gen = RngStream(7).generator()
        m = 6
        w = gen.normal(size=m)

        def value(Z):
            return np.tanh(Z.astype(float) @ w)

        phi, empty, full = shapley_values(value, m, ExplainerConfig())
        assert abs(phi.sum() - (full - empty)) < 1e-12

    def test_dummy_player(self):
        def value(Z):
            return Z[:, 0].astype(float) * 2.0 + 1.0

        phi, _, _ = shapley_values(value, 4, ExplainerConfig())
        assert abs(phi[0] - 2.0) < 1e-10
        assert np.abs(phi[1:]).max() < 1e-10

    def test_symmetric_players_equal(self):
        def value(Z):
            return (Z[:, 0] | Z[:, 1]).astype(float)

        phi, _, _ = shapley_values(value, 3, ExplainerConfig())
        assert abs(phi[0] - phi[1]) < 1e-12
        assert abs(phi[2]) < 1e-12

    def test_additive_game_recovers_weights(self):
        gen = RngStream(8).generator()
        w = gen.normal(size=5)

        def value(Z):
            return Z.astype(float) @ w + 3.0

        phi, empty, full = shapley_values(value, 5, ExplainerConfig())
        assert np.abs(phi - w).max() < 1e-10
        assert abs(empty - 3.0) < 1e-12

    def test_zero_and_one_player_games(self):
        phi, empty, full = shapley_values(lambda Z: np.full(Z.shape[0], 2.0), 0,
                                          ExplainerConfig())
        assert phi.size == 0

        def value(Z):
            return Z[:, 0].astype(float) * 5.0

        phi, empty, full = shapley_values(value, 1, ExplainerConfig())
        assert phi[0] == 5.0


class TestShapleySampling:
    def third_order_game(self):
        gen = np.random.default_rng(3)
        m = 10
        w_lin = gen.normal(size=m)
        triples = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (1, 5, 9)]
        w_tri = gen.normal(size=len(triples)) * 2.0

        def value(Z):
            Zf = Z.astype(float)
            out = Zf @ w_lin
            for k, (i, j, l) in enumerate(triples):
                out += w_tri[k] * Zf[:, i] * Zf[:, j] * Zf[:, l]
            return out

        return value, m

    def test_converges_to_exact(self):
        value, m = self.third_order_game()
        exact, _, _ = shapley_values(value, m, ExplainerConfig(exact_threshold=12))
        for seed in range(5):
            cfg = ExplainerConfig(exact_threshold=4, n_samples=2000, seed=seed)
            approx, _, _ = shapley_values(value, m, cfg)
            assert np.abs(approx - exact).max() <= 0.05

    def test_local_accuracy_holds_when_sampling(self):
        value, m = self.third_order_game()
        cfg = ExplainerConfig(exact_threshold=4, n_samples=300, seed=1)
        phi, empty, full = shapley_values(value, m, cfg)
        assert abs(phi.sum() - (full - empty)) < 1e-10

    def test_sampling_deterministic_per_seed(self):
        value, m = self.third_order_game()
        cfg = ExplainerConfig(exact_threshold=4, n_samples=500, seed=9)
        a, _, _ = shapley_values(value, m, cfg)
        b, _, _ = shapley_values(value, m, cfg)
        assert np.array_equal(a, b)

    def test_too_few_samples_rejected(self):
        value, m = self.third_order_game()
        with pytest.raises(ConfigError):
            shapley_values(value, m, ExplainerConfig(exact_threshold=4, n_samples=8))


class TestExplainModel:
    def test_constant_model_all_zero(self):
        model = make_model(F=2, H=3, seed=1)
        model.gru.W_out[:] = 0.0
        model.gru.b_out = 0.3
        gen = RngStream(9).generator()
        X = gen.normal(size=(2, 4))
        M = np.ones((2, 4))
        B = np.zeros((2, 4))
        res = explain_step(model, X, M, 3, B, ExplainerConfig())
        assert np.abs(res.weights).max() < 1e-10
        from tsxplain.numerics import sigmoid
        assert abs(res.base - sigmoid(np.array([0.3]))[0]) < 1e-12

    def test_local_accuracy_against_forward(self):
        from tsxplain.model import forward
        model = make_model(F=3, H=4, seed=2, use_attention=True)
        gen = RngStream(10).generator()
        X = gen.normal(size=(3, 5))
        M = np.ones((3, 5))
        B = gen.normal(size=(3, 5)) * 0.1
        t = 4
        res = explain_step(model, X, M, t, B, ExplainerConfig())
        assert abs(res.output - forward(X, M, model)[t - 1]) < 1e-12
        assert abs(res.weights.sum() - (res.output - res.base)) < 1e-10

    def test_masked_cells_never_players(self):
        model = make_model(F=3, H=4, seed=3)
        gen = RngStream(11).generator()
        X = gen.normal(size=(3, 5))
        M = np.ones((3, 5))
        M[1, 0] = 0.0
        B = np.zeros((3, 5))
        res = explain_step(model, X, M, 3, B, ExplainerConfig())
        assert (1, 0) not in res.players

    def test_mask_neutral(self):
        model = make_model(F=3, H=4, seed=4, use_attention=True)
        gen = RngStream(12).generator()
        X = gen.normal(size=(3, 5))
        M = (gen.random((3, 5)) < 0.7).astype(float)
        M[:, 0] = 1.0  # keep the mask nonempty at the explained steps
        B = gen.normal(size=(3, 5)) * 0.1
        X2 = X.copy()
        X2[M == 0.0] = 1e6
        a = explain_patient(model, X, M, B, ExplainerConfig(), stay_length=5)
        b = explain_patient(model, X2, M, B, ExplainerConfig(), stay_length=5)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.base, b.base)

    def test_timestep_mode_table(self):
        model = make_model(F=2, H=3, seed=5)
        gen = RngStream(13).generator()
        X = gen.normal(size=(2, 4))
        M = np.ones((2, 4))
        B = np.zeros((2, 4))
        cfg = ExplainerConfig(mode="timestep")
        res = explain_patient(model, X, M, B, cfg, stay_length=4)
        table = res.step_table
        assert table is not None
        # lower-triangular: the step-t game has players 0..t-1 only
        for t in range(4):
            assert not table[t, t + 1:].any()
            assert table[t, : t + 1].any()
        assert not res.W.any()

    def test_steps_outside_stay_rejected(self):
        model = make_model(F=2, H=3, seed=6)
        X = np.ones((2, 4))
        M = np.ones((2, 4))
        with pytest.raises(DataError):
            explain_patient(
                model, X, M, np.zeros((2, 4)), ExplainerConfig(),
                stay_length=3, steps=[4],
            )


class TestAggregate:
    def make_expls(self, cohort, fill):
        out = []
        for p, v in zip(cohort.patients, fill):
            W = np.full((cohort.F, cohort.T), v)
            out.append(
                ImportanceMatrix(
                    W=W, base=np.full(cohort.T, v), method="itshap-cell",
                    patient_id=p.id,
                )
            )
        return out

    def test_single_patient_identity(self):
        c = toy_cohort([(None, 6)], F=3, T=6, seed=14)
        expls = self.make_expls(c, [0.4])
        agg = aggregate_by_class(expls, c, "all")
        assert np.abs(agg.W - 0.4).max() < 1e-12

    def test_hand_mean_and_counts(self):
        c = toy_cohort([(None, 6), (1, 6)], F=3, T=6, seed=15)
        expls = self.make_expls(c, [0.2, 0.6])
        agg = aggregate_by_class(expls, c, "all")
        assert np.abs(agg.W - 0.4).max() < 1e-12
        assert (agg.n_valid == 2).all()

    def test_opposite_signs_cancel(self):
        c = toy_cohort([(None, 6), (None, 6)], F=3, T=6, seed=16)
        expls = self.make_expls(c, [1.0, -1.0])
        agg = aggregate_by_class(expls, c, "all")
        assert np.abs(agg.W).max() < 1e-12

    def test_scope_filters(self):
        c = toy_cohort([(None, 6), (1, 6)], F=3, T=6, seed=17)
        expls = self.make_expls(c, [0.2, 0.6])
        pos = aggregate_by_class(expls, c, "positive")
        neg = aggregate_by_class(expls, c, "negative")
        assert np.abs(pos.W - 0.6).max() < 1e-12
        assert np.abs(neg.W - 0.2).max() < 1e-12

    def test_invalid_cells_excluded(self):
        c = toy_cohort([(None, 4), (None, 6)], F=3, T=6, seed=18)
        expls = self.make_expls(c, [100.0, 0.5])
        agg = aggregate_by_class(expls, c, "all")
        # steps 5-6 only covered by the second patient
        assert np.abs(agg.W[:, 4:] - 0.5).max() < 1e-12
        assert (agg.n_valid[:, 4:] == 1).all()

    def test_misaligned_rejected(self):
        c = toy_cohort([(None, 6), (None, 6)], F=3, T=6, seed=19)
        expls = self.make_expls(c, [0.2, 0.6])
        expls[0].patient_id = "someone_else"
        with pytest.raises(DataError):
            aggregate_by_class(expls, c, "all")

    def test_unknown_scope(self):
        c = toy_cohort([(None, 6)], F=3, T=6, seed=20)
        with pytest.raises(ConfigError):
            aggregate_by_class(self.make_expls(c, [0.1]), c, "everyone")

    def test_empty_scope(self):
        c = toy_cohort([(None, 6)], F=3, T=6, seed=21)
        with pytest.raises(DataError):
            aggregate_by_class(self.make_expls(c, [0.1]), c, "positive")
