import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsxplain import itshap
from tsxplain.errors import ConfigError, DataError
from tsxplain.itshap import (
    ExplainerConfig,
    Game,
    _coalitions,
    _solve_constrained,
    aggregate_by_class,
    background_matrix,
    cell_players,
    check_budget,
    explain_patient,
    explain_patients,
    explain_step,
    shap_kernel_weight,
    shapley_values,
    timestep_players,
)
from tsxplain.model import (ROW_BLOCK, TrainedModel, forward_prepared, init_params,
                            schema_fingerprint)
from tsxplain.numerics import RngStream

from conftest import freeze, small_schema, toy_cohort
from oracles import (
    Coalition,
    aggregate_by_patient,
    coalition_inputs_by_player,
    coalitions_by_row,
    evaluate_coalitions_whole_batch,
    explain_patient_alone,
    explain_patient_every_step,
    explain_step_game,
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

    def test_cohort_blocks_unwritten(self):
        """The means read the cohort's X, which holds X⊙M, in place."""
        c = toy_cohort([(None, 6), (2, 4), (None, 3)], F=3, T=6, seed=4)
        c.patients[1].M[0, 1] = False
        c.patients[1].X[0, 1] = -0.0
        before = [block.copy() for block in (c.X, c.M)]
        B = background_matrix(freeze(c))
        assert np.isfinite(B).all()
        assert all(a.tobytes() == b.tobytes() for a, b in zip((c.X, c.M), before))


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


    @pytest.mark.parametrize("m,n_samples,ok", [
        (12, 2, True),  # enumerated exactly, whatever the budget
        (13, 15, True), (13, 14, False), (100, 101, False), (100, 102, True),
    ])
    def test_budget_bound(self, m, n_samples, ok):
        """``check_budget`` is the bound ``_coalitions`` applies."""
        cfg = ExplainerConfig(exact_threshold=12, n_samples=n_samples)
        if ok:
            check_budget(m, cfg)
            _coalitions(m, cfg, 0)
        else:
            for call in (lambda: check_budget(m, cfg), lambda: _coalitions(m, cfg, 0)):
                with pytest.raises(ConfigError, match=f"too small for {m} players"):
                    call()


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
        Wa, base_a = explain_patient(model, X, M, B, ExplainerConfig(), 5, all_steps=True)
        Wb, base_b = explain_patient(model, X2, M, B, ExplainerConfig(), 5, all_steps=True)
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(base_a, base_b)

    def test_timestep_config_or_stay_outside_1_to_T_rejected(self, monkeypatch):
        model = make_model(F=2, H=3, seed=6)
        played = []
        monkeypatch.setattr(itshap, "explain_step", lambda *a, **k: played.append(a))
        X, M, B = np.ones((2, 4)), np.ones((2, 4)), np.zeros((2, 4))
        with pytest.raises(ConfigError, match="cell-mode games, got mode 'timestep'"):
            explain_patient(model, X, M, B, ExplainerConfig(mode="timestep"), 3)
        for stay in (0, 5):
            with pytest.raises(DataError, match=f"stay_length {stay} out of 1..4"):
                explain_patient(model, X, M, B, ExplainerConfig(), stay)
        assert played == []


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
            if mode == "timestep":
                # explain_patient plays cell games only; each step's timestep
                # game is explain_step's, for library use
                with pytest.raises(ConfigError):
                    explain_patient(model, X, M, B, cfg, stay)
                for t in range(1, stay + 1):
                    got = explain_step(model, X, M, t, B, cfg)
                    weights, base, players, output = explain_step_game(model, X, M, t, B, cfg)
                    assert np.array_equal(got.weights, weights) and got.players == players
                    assert got.base == base and got.output == output
                continue
            for all_steps in (False, True):
                W, base = explain_patient(model, X, M, B, cfg, stay, all_steps)
                want_W, want_base = explain_patient_every_step(model, X, M, B, cfg, stay,
                                                               all_steps)
                assert np.array_equal(W, want_W)
                assert np.array_equal(base, want_base)

    @pytest.mark.parametrize("m", range(2, 15))
    def test_exact_coalitions(self, m):
        cfg = ExplainerConfig(exact_threshold=16)
        Z, w, ridge = _coalitions(m, cfg, 0)
        Zo, wo, ridge_o = coalitions_by_row(m, cfg)
        assert Z.dtype == Zo.dtype and np.array_equal(Z, Zo)
        assert np.array_equal(w, wo) and ridge == ridge_o == 0.0

    @pytest.mark.parametrize("m,n_samples", [
        (2, 8), (3, 8), (4, 10), (5, 11), (7, 9), (9, 64), (30, 1024), (57, 1024),
        (177, 1024),
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
        if m <= 57:
            # no pair size is below float64 resolution, so the rows are also
            # those of the sampler that played every drawn pair
            Zo, wo, _ = coalitions_by_row(m, cfg, seed_index, play_every_pair=True)
            assert np.array_equal(Z, Zo) and np.array_equal(w, wo)

    @pytest.mark.parametrize("m", [60, 120, 177])
    def test_dropped_pairs_cannot_move_the_fit(self, m):
        """On the draws of the sampler that played every pair, the rows below
        float64 resolution change no attribution beyond rounding."""
        cfg = ExplainerConfig(exact_threshold=0, n_samples=1024, seed=5)
        Z, w, ridge = coalitions_by_row(m, cfg, 3, play_every_pair=True)
        kept = w >= np.finfo(np.float64).eps * shap_kernel_weight(m, 1)
        assert not kept.all()
        gen = np.random.default_rng(m)
        lin, pairs = gen.normal(size=m), gen.normal(size=(m, m)) / m

        def value(Zb):
            Zf = Zb.astype(float)
            return np.tanh(Zf @ lin / 4 + np.einsum("ki,ij,kj->k", Zf, pairs, Zf))

        empty = float(value(np.zeros((1, m), dtype=bool))[0])
        full = float(value(np.ones((1, m), dtype=bool))[0])
        v = value(Z)
        every = _solve_constrained(Z, v, w, empty, full, ridge)
        fit = _solve_constrained(Z[kept], v[kept], w[kept], empty, full, ridge)
        assert np.abs(fit - every).max() <= 1e-12 * np.abs(every).max()

    @settings(max_examples=60, deadline=None)
    @given(m=st.one_of(st.integers(2, 200), st.just(176)), extra=st.integers(0, 2048))
    def test_rows_above_resolution_within_budget(self, m, extra):
        cfg = ExplainerConfig(exact_threshold=0, n_samples=m + 2 + extra)
        Z, w, _ = _coalitions(m, cfg, 0)
        assert np.all(w >= np.finfo(np.float64).eps * shap_kernel_weight(m, 1))
        assert Z.shape[0] - 2 * m <= max(cfg.n_samples - 2 * m, 0)

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

    @pytest.mark.parametrize("all_steps", [False, True])
    def test_games_played(self, monkeypatch, all_steps):
        """Only the final step's game is played, also for every step's base."""
        played = []

        def counting_step(*args):
            played.append(args[3])
            return explain_step(*args)

        monkeypatch.setattr(itshap, "explain_step", counting_step)
        model = make_model(F=3, H=4, seed=17)
        X, M, stay = _short_stays(3, 6, seed=18)[4]
        explain_patient(model, X, M, np.zeros((3, 6)), ExplainerConfig(), stay, all_steps)
        assert played == [stay]


def _game_with(m, mode, F, T, seed):
    """(X, M, t) of a patient whose step-t game has m players: m observed
    cells over T steps in cell mode, m steps in timestep mode."""
    gen = RngStream(seed).generator()
    X = gen.normal(size=(F, T))
    if mode == "timestep":
        return X, (gen.random((F, T)) < 0.7).astype(float), m
    M = np.zeros((F, T))
    M.flat[gen.choice(F * T, m, replace=False)] = 1.0
    return X, M, T


class TestCoalitionBlocks:
    """A game forwards its coalition rows in blocks of at most
    ``ROW_BLOCK``; it must agree bit for bit with the whole-batch
    evaluation in ``oracles``, and its memory must not grow with its rows."""

    @pytest.mark.parametrize("explain_logit", [False, True])
    @pytest.mark.parametrize("use_attention", [False, True])
    @pytest.mark.parametrize("mode", ["cell", "timestep"])
    def test_exact_games(self, mode, use_attention, explain_logit):
        F, T = 3, (6 if mode == "cell" else 16)  # 18 cells, or 16 steps
        model = make_model(F=F, H=4, seed=21, use_attention=use_attention)
        B = RngStream(22).generator().normal(size=(F, T)) * 0.3
        cfg = ExplainerConfig(mode=mode, exact_threshold=16, explain_logit=explain_logit)
        for m in range(2, 17):  # 2 to 65,534 rows
            X, M, t = _game_with(m, mode, F, T, seed=m)
            got = explain_step(model, X, M, t, B, cfg)
            weights, base, players, output = explain_step_game(model, X, M, t, B, cfg)
            assert len(players) == m
            assert np.array_equal(got.weights, weights) and got.players == players
            assert got.base == base and got.output == output

    @pytest.mark.parametrize("n_samples", [2048, 4096])
    @pytest.mark.parametrize("explain_logit", [False, True])
    @pytest.mark.parametrize("use_attention", [False, True])
    @pytest.mark.parametrize("mode", ["cell", "timestep"])
    def test_sampled_games(self, mode, use_attention, explain_logit, n_samples):
        F, T = 3, 16
        model = make_model(F=F, H=4, seed=21, use_attention=use_attention)
        B = RngStream(22).generator().normal(size=(F, T)) * 0.3
        cfg = ExplainerConfig(mode=mode, exact_threshold=0, n_samples=n_samples, seed=3,
                              explain_logit=explain_logit)
        X, M, t = _game_with(40 if mode == "cell" else 16, mode, F, T, seed=23)
        got = explain_step(model, X, M, t, B, cfg)
        weights, base, players, output = explain_step_game(model, X, M, t, B, cfg)
        assert coalitions_by_row(len(players), cfg, t)[0].shape[0] > ROW_BLOCK
        assert np.array_equal(got.weights, weights) and got.players == players
        assert got.base == base and got.output == output

    @pytest.mark.parametrize("K", [1025, 2049])
    def test_odd_row_counts(self, K):
        """No game plays an odd number of rows today. A one-row block, or a
        short block before the last, would send rows down other BLAS
        kernels. Their bits differ in few rows, so a dozen draws are played:
        on a 2-core x86-64 machine with OpenBLAS 0.3.31, either split fails
        at least one of them."""
        F, T = 14, 14
        model = make_model(F=F, H=8, seed=24)
        for seed in range(12):
            gen = RngStream(seed).generator()
            X, B = gen.normal(size=(2, F, T))
            M = (gen.random((F, T)) < 0.5).astype(float)
            players = cell_players(M, T)
            Z = gen.random((K, len(players))) < 0.5
            got = itshap._evaluate_coalitions(model, X, M, T, B, players, "cell", Z, False)
            want = evaluate_coalitions_whole_batch(model, X, M, T, B, players, "cell", Z,
                                                   False)
            assert np.array_equal(got, want), seed

    def test_game_memory_bounded_by_the_block(self):
        """A 16-player exact cell game plays 65,534 rows; on an attention
        model its traced peak stays far below one input block of them all."""
        F, T = 14, 14
        model = make_model(F=F, H=8, seed=26, use_attention=True)
        X, M, t = _game_with(16, "cell", F, T, seed=27)
        tracemalloc.start()
        try:
            res = explain_step(model, X, M, t, np.zeros((F, T)),
                               ExplainerConfig(exact_threshold=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        whole_batch_inputs = (2**16 - 2) * F * T * 8
        assert len(res.players) == 16
        assert peak < whole_batch_inputs / 3, (peak, whole_batch_inputs)

    def test_fit_memory_bounded_by_its_design(self):
        """The fit of a 16-player exact game builds its (K, m - 1) float64
        design straight from the bool coalitions, so its traced peak stays
        below two and a half designs: the design and the weighted copy that
        the least-squares solve makes."""
        Z, w, ridge = _coalitions(16, ExplainerConfig(exact_threshold=16), 0)
        v = RngStream(28).generator().random(len(Z))
        tracemalloc.start()
        try:
            _solve_constrained(Z, v, w, 0.1, 0.7, ridge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        design = Z.shape[0] * (Z.shape[1] - 1) * 8
        assert peak < 2.5 * design, (peak, design)


def _patients_with_keys(keys, n, F, T, seed):
    """(X, M, stays) of n patients, patient i with the final-step key
    keys[i % len(keys)] = (stay, players): nothing observed after the stay,
    and X holding X⊙M, as in a cohort."""
    gen = RngStream(seed).generator()
    X, M = gen.normal(size=(n, F, T)), np.zeros((n, F, T), dtype=bool)
    stays = np.array([keys[i % len(keys)][0] for i in range(n)])
    for i in range(n):
        stay, m = keys[i % len(keys)]
        cells = gen.choice(F * stay, m, replace=False)  # the cells before column stay
        M[i, cells % F, cells // F] = True
    return X * M, M, stays


class TestSharedGames:
    """``explain_patients`` plays one ``Game`` per (stay, players) key: each
    patient's W and base row must keep the bits of the patient explained
    alone, with its own draws, fit and background forward."""

    REGIMES = {
        "exact": dict(exact_threshold=12),
        "sampled": dict(exact_threshold=0, n_samples=48),
        "mixed": dict(exact_threshold=5, n_samples=40),
    }

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), stays=st.lists(st.integers(1, 6), min_size=1, max_size=8),
           shared=st.lists(st.booleans(), min_size=8, max_size=8),
           regime=st.sampled_from(sorted(REGIMES)), explain_logit=st.booleans(),
           all_steps=st.booleans(), use_attention=st.booleans())
    def test_grouped_path_matches_each_patient_alone(self, seed, stays, shared, regime,
                                                     explain_logit, all_steps, use_attention):
        F, T, n = 2, 6, len(stays)
        model = make_model(F=F, H=4, seed=seed % 5, use_attention=use_attention)
        cfg = ExplainerConfig(explain_logit=explain_logit, seed=seed % 7, **self.REGIMES[regime])
        gen = RngStream(seed).generator()
        B = gen.normal(size=(F, T)) * 0.3
        X, M = gen.normal(size=(n, F, T)), gen.random((n, F, T)) < 0.7
        stays = np.array(stays)
        for i in range(1, n):
            if shared[i]:  # an earlier patient's mask and stay: its key, other values
                j = int(gen.integers(i))
                M[i], stays[i] = M[j], stays[j]
        M &= np.arange(T) < stays[:, None, None]
        X = X * M
        W, base = explain_patients(model, X, M, B, cfg, stays, all_steps)
        for i in range(n):
            want_W, want_base = explain_patient_alone(model, X[i], M[i], B, cfg, int(stays[i]),
                                                      all_steps)
            assert W[i].tobytes() == want_W.tobytes(), i
            assert base[i].tobytes() == want_base.tobytes(), i

    def test_one_draw_per_key(self, monkeypatch):
        """12 patients with 4 keys, visited out of key order, draw 4 times."""
        keys = [(6, 9), (4, 7), (6, 8), (4, 9)]
        X, M, stays = _patients_with_keys(keys, 12, F=3, T=6, seed=31)
        drawn, draw = [], itshap._coalitions
        monkeypatch.setattr(itshap, "_coalitions", lambda m, cfg, seed_index: (
            drawn.append((seed_index, m)) or draw(m, cfg, seed_index)))
        model = make_model(F=3, H=4, seed=32)
        cfg = ExplainerConfig(exact_threshold=0, n_samples=64)
        explain_patients(model, X, M, np.zeros((3, 6)), cfg, stays)
        assert sorted(drawn) == sorted(keys)

    def test_one_game_alive_at_a_time(self, monkeypatch):
        """At each patient's call, at most one game's coalitions and normal
        equations are held: a cache of every key's game would hold four."""
        F, T = 4, 10
        keys = [(T, 30), (T, 31), (T, 32), (T, 33)]
        X, M, stays = _patients_with_keys(keys, 8, F=F, T=T, seed=33)
        order = np.argsort([i % 4 for i in range(8)], kind="stable")  # key by key
        X, M, stays = X[order], M[order], stays[order]
        cfg = ExplainerConfig(exact_threshold=0, n_samples=4096)
        game = Game(T, 33, cfg)
        held_by_one = (game.coalitions[0].nbytes + game.coalitions[1].nbytes
                       + game.normal.Xw.nbytes + game.normal.A.nbytes)
        del game
        model = make_model(F=F, H=4, seed=34)
        held, explain = [], itshap.explain_patient
        monkeypatch.setattr(itshap, "explain_patient", lambda *a, **k: held.append(
            tracemalloc.get_traced_memory()[0]) or explain(*a, **k))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            explain_patients(model, X, M, np.zeros((F, T)), cfg, stays)
        finally:
            tracemalloc.stop()
        assert len(held) == 8
        assert max(held) - start > 0.8 * held_by_one  # a game is held between its patients
        assert max(held) - start < 1.5 * held_by_one, (max(held) - start, held_by_one)

    def test_game_of_another_key_rejected(self):
        model = make_model(F=3, H=4, seed=35)
        X, M, stays = _patients_with_keys([(5, 6)], 1, F=3, T=6, seed=36)
        cfg = ExplainerConfig()
        for key in ((4, 6), (5, 7)):
            with pytest.raises(ValueError, match="cannot explain step 5 with 6 players"):
                explain_step(model, X[0], M[0], 5, np.zeros((3, 6)), cfg, Game(*key, cfg))
