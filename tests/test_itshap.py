import math
from itertools import combinations

import numpy as np
import pytest

from tsxplain import itshap
from tsxplain.errors import ConfigError, DataError
from tsxplain.itshap import (
    ExplainerConfig,
    _coalitions,
    aggregate_by_class,
    background_matrix,
    cell_players,
    explain_patient,
    explain_step,
    shap_kernel_weight,
    shapley_values,
    timestep_players,
)
from tsxplain.model import TrainedModel, forward_prepared, init_params, schema_fingerprint
from tsxplain.numerics import RngStream

from conftest import small_schema, toy_cohort
from oracles import (
    Coalition,
    aggregate_by_patient,
    coalition_inputs_by_player,
    coalitions_by_row,
    explain_patient_every_step,
    perturb,
)


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


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"ridge": float("nan")}, {"ridge": float("inf")}, {"ridge": -1.0},
        {"ridge": True}, {"ridge": "1e-6"},
        {"n_samples": 1024.5}, {"n_samples": True}, {"n_samples": 1},
        {"exact_threshold": 4.0}, {"exact_threshold": 17},
        {"seed": 1.5}, {"seed": False}, {"seed": -1},
        {"mode": "cells"},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExplainerConfig(**kwargs)

    def test_accepted(self):
        cfg = ExplainerConfig(n_samples=np.int64(64), ridge=0, seed=3, exact_threshold=0)
        assert cfg.n_samples == 64


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
    def make_block(self, cohort, fill):
        """The importance block whose row i is patient i's matrix, all fill[i]."""
        return np.stack([np.full((cohort.F, cohort.T), v) for v in fill])

    def test_single_patient_identity(self):
        c = toy_cohort([(None, 6)], F=3, T=6, seed=14)
        W, _ = aggregate_by_class(self.make_block(c, [0.4]), c, "all")
        assert np.abs(W - 0.4).max() < 1e-12

    def test_hand_mean_and_counts(self):
        c = toy_cohort([(None, 6), (1, 6)], F=3, T=6, seed=15)
        W, counts = aggregate_by_class(self.make_block(c, [0.2, 0.6]), c, "all")
        assert np.abs(W - 0.4).max() < 1e-12
        assert (counts == 2).all()

    def test_opposite_signs_cancel(self):
        c = toy_cohort([(None, 6), (None, 6)], F=3, T=6, seed=16)
        W, _ = aggregate_by_class(self.make_block(c, [1.0, -1.0]), c, "all")
        assert np.abs(W).max() < 1e-12

    def test_scope_filters(self):
        c = toy_cohort([(None, 6), (1, 6)], F=3, T=6, seed=17)
        block = self.make_block(c, [0.2, 0.6])
        pos, _ = aggregate_by_class(block, c, "positive")
        neg, _ = aggregate_by_class(block, c, "negative")
        assert np.abs(pos - 0.6).max() < 1e-12
        assert np.abs(neg - 0.2).max() < 1e-12

    def test_invalid_cells_excluded(self):
        c = toy_cohort([(None, 4), (None, 6)], F=3, T=6, seed=18)
        W, counts = aggregate_by_class(self.make_block(c, [100.0, 0.5]), c, "all")
        # steps 5-6 only covered by the second patient
        assert np.abs(W[:, 4:] - 0.5).max() < 1e-12
        assert (counts[:, 4:] == 1).all()

    def test_misaligned_rejected(self):
        c = toy_cohort([(None, 6), (None, 6)], F=3, T=6, seed=19)
        for fill in ([0.2], [0.2, 0.6, 0.1]):  # a row short, a row over
            with pytest.raises(DataError):
                aggregate_by_class(self.make_block(c, fill), c, "all")

    def test_unknown_scope(self):
        c = toy_cohort([(None, 6)], F=3, T=6, seed=20)
        with pytest.raises(ConfigError):
            aggregate_by_class(self.make_block(c, [0.1]), c, "everyone")

    def test_empty_scope(self):
        c = toy_cohort([(None, 6)], F=3, T=6, seed=21)
        with pytest.raises(DataError):
            aggregate_by_class(self.make_block(c, [0.1]), c, "positive")

    @pytest.mark.parametrize("scope", ["all", "positive", "negative"])
    @pytest.mark.parametrize("F,T,n,special_rate", [
        # one cell: the summation order shows only without +-1e300 terms
        (1, 1, 40, 0.0), (1, 3, 9, 0.1), (3, 6, 20, 0.1), (14, 5, 40, 0.05),
    ])
    def test_block_matches_per_patient_loop(self, F, T, n, special_rate, scope):
        # short stays, masked cells, and values with -0.0 and +-1e300: the
        # block average must have the bits of the patient-by-patient loop
        gen = RngStream(F * 100 + T).generator()
        specs = [(None if i % 3 else 1, 1 + i % T) for i in range(n)]
        c = toy_cohort(specs, F=F, T=T, seed=n)
        c.M *= gen.random(c.M.shape) < 0.7
        W = gen.normal(size=c.M.shape) * 10.0 ** gen.integers(-3, 4, size=c.M.shape)
        special = gen.choice([-0.0, 1e300, -1e300], size=c.M.shape)
        W = np.where(gen.random(c.M.shape) < special_rate, special, W)
        got, got_counts = aggregate_by_class(W, c, scope)
        want, want_counts = aggregate_by_patient(W, c, scope)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_counts, want_counts)

    @pytest.mark.parametrize("scope", ["all", "positive", "negative"])
    def test_negative_zeros_average_to_positive_zero(self, scope):
        # the loop adds -0.0 to a +0.0 start, which gives +0.0
        c = toy_cohort([(None, 6), (1, 6), (None, 3)], F=3, T=6, seed=22)
        W = np.full(c.M.shape, -0.0)
        got, _ = aggregate_by_class(W, c, scope)
        want, _ = aggregate_by_patient(W, c, scope)
        assert got.tobytes() == want.tobytes() == np.zeros((3, 6)).tobytes()


def _short_stays(F, T, seed):
    """(X, M, stay) with stays from 1 to T and a few masked cells, all
    patient-like: nothing observed after the stay."""
    gen = RngStream(seed).generator()
    out = []
    for stay in range(1, T + 1):
        X = gen.normal(size=(F, T))
        M = (gen.random((F, T)) < 0.7).astype(float)
        M[:, stay:] = 0.0
        out.append((X, M, stay))
    return out


class TestFastPathOracles:
    """The explainer against the reference in ``oracles``: coalitions built
    row by row, inputs masked one player at a time, and a full game played
    for every explained step. Everything must agree bit for bit."""

    REGIMES = {
        "exact": dict(exact_threshold=12),
        "sampled": dict(exact_threshold=0, n_samples=96),
        "mixed": dict(exact_threshold=4, n_samples=64),
    }

    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("mode", ["cell", "timestep"])
    @pytest.mark.parametrize("explain_logit", [False, True])
    @pytest.mark.parametrize("use_attention", [False, True])
    def test_explain_patient(self, use_attention, explain_logit, mode, regime):
        model = make_model(F=3, H=4, seed=11, use_attention=use_attention)
        cfg = ExplainerConfig(mode=mode, explain_logit=explain_logit, seed=7,
                              **self.REGIMES[regime])
        B = RngStream(12).generator().normal(size=(3, 6)) * 0.3
        for X, M, stay in _short_stays(3, 6, seed=13):
            for steps in (None, [stay], sorted({1, (stay + 1) // 2, stay})):
                got = explain_patient(model, X, M, B, cfg, stay_length=stay,
                                      steps=steps)
                want = explain_patient_every_step(model, X, M, B, cfg, stay,
                                                  steps=steps)
                assert np.array_equal(got.W, want.W)
                assert np.array_equal(got.base, want.base)
                if mode == "timestep":
                    assert np.array_equal(got.step_table, want.step_table)
                else:
                    assert got.step_table is None

    @pytest.mark.parametrize("m", range(2, 15))
    def test_exact_coalitions(self, m):
        cfg = ExplainerConfig(exact_threshold=16)
        Z, w, ridge = _coalitions(m, cfg, 0)
        Zo, wo, ridge_o = coalitions_by_row(m, cfg)
        assert Z.dtype == Zo.dtype and np.array_equal(Z, Zo)
        assert np.array_equal(w, wo) and ridge == ridge_o == 0.0

    @pytest.mark.parametrize("m,n_samples", [
        (2, 8), (3, 8), (4, 10), (5, 11), (7, 9), (9, 64), (30, 1024), (177, 1024),
    ])
    @pytest.mark.parametrize("seed_index", [1, 14])
    def test_sampled_coalitions(self, m, n_samples, seed_index):
        # the rows depend on the RNG stream: equal rows show that the same
        # draws are made in the same order
        cfg = ExplainerConfig(exact_threshold=0, n_samples=n_samples, seed=5)
        Z, w, ridge = _coalitions(m, cfg, seed_index)
        Zo, wo, ridge_o = coalitions_by_row(m, cfg, seed_index)
        assert Z.dtype == Zo.dtype and np.array_equal(Z, Zo)
        assert np.array_equal(w, wo) and ridge == ridge_o == cfg.ridge

    @pytest.mark.parametrize("mode", ["cell", "timestep"])
    def test_coalition_inputs(self, monkeypatch, mode):
        model = make_model(F=3, H=4, seed=14)
        B = RngStream(15).generator().normal(size=(3, 6))
        batches = []

        def recording_forward(Xin, gru, att):
            batches.append(Xin.copy())
            return forward_prepared(Xin, gru, att)

        monkeypatch.setattr(itshap, "forward_prepared", recording_forward)
        cfg = ExplainerConfig(mode=mode, exact_threshold=3, n_samples=40)
        for X, M, stay in _short_stays(3, 6, seed=16):
            batches.clear()
            res = explain_step(model, X, M, stay, B, cfg)
            m = len(res.players)
            coalitions = [np.ones((1, m), dtype=bool), np.zeros((1, m), dtype=bool)]
            if m > 1:
                coalitions.append(coalitions_by_row(m, cfg, seed_index=stay)[0])
            assert len(batches) == len(coalitions)
            for got, Z in zip(batches, coalitions):
                want = coalition_inputs_by_player(X, M, stay, B, res.players, mode, Z)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode,games", [("cell", 1), ("timestep", 5)])
    def test_games_played(self, monkeypatch, mode, games):
        played = []

        def counting_step(*args):
            played.append(args[3])
            return explain_step(*args)

        monkeypatch.setattr(itshap, "explain_step", counting_step)
        model = make_model(F=3, H=4, seed=17)
        X, M, stay = _short_stays(3, 6, seed=18)[4]
        explain_patient(model, X, M, np.zeros((3, 6)), ExplainerConfig(mode=mode),
                        stay_length=stay)
        assert played == list(range(1, stay + 1))[-games:]
