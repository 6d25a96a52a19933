import tracemalloc

import numpy as np
import pytest

from tsxplain import model as model_mod
from tsxplain.data import ClassWeights, Cohort, compute_class_weights, synth_cohort, SynthConfig
from tsxplain.errors import ConfigError, DataError, ShapeError
from tsxplain.model import (
    GRU_ARRAYS,
    _backward_core,
    _fit,
    _forward_core,
    AttentionParams,
    GRUParams,
    TrainConfig,
    TrainedModel,
    attention_matrix,
    backward,
    forward,
    forward_prepared,
    init_params,
    ROW_BLOCK,
    load_model,
    row_blocks,
    save_model,
    schema_fingerprint,
    tbbce,
    train,
)
from tsxplain.numerics import RngStream, sigmoid

from conftest import freeze, small_schema, toy_cohort
import oracles
from oracles import fit_sequential, gru_bptt, gru_step, train_sequential


def make_model(F=3, H=4, seed=0, use_attention=False, schema=None) -> TrainedModel:
    gru, att = init_params(F, H, RngStream(seed), use_attention)
    if att is not None:
        # attention initializes to zero; tests want a nontrivial matrix
        gen = RngStream(seed).child(7).generator()
        att.W = gen.normal(scale=0.4, size=att.W.shape)
        att.b = gen.normal(scale=0.1, size=att.b.shape)
    fp = schema_fingerprint(schema or small_schema(F))
    return TrainedModel(gru=gru, attention=att, schema_fingerprint=fp)


def flatten_params(model: TrainedModel) -> np.ndarray:
    g = model.gru
    parts = [g.W_z, g.W_r, g.W_h, g.b_z, g.b_r, g.b_h, g.W_out, [g.b_out]]
    if model.attention is not None:
        parts += [model.attention.W, model.attention.b]
    return np.concatenate([np.ravel(p) for p in parts])


def set_params(model: TrainedModel, theta: np.ndarray) -> None:
    g = model.gru
    pos = 0
    for name in ("W_z", "W_r", "W_h", "b_z", "b_r", "b_h", "W_out"):
        arr = getattr(g, name)
        setattr(g, name, theta[pos : pos + arr.size].reshape(arr.shape))
        pos += arr.size
    g.b_out = float(theta[pos])
    pos += 1
    if model.attention is not None:
        a = model.attention
        a.W = theta[pos : pos + a.W.size].reshape(a.W.shape)
        pos += a.W.size
        a.b = theta[pos : pos + a.b.size]


def flatten_grads(grads: dict, use_attention: bool) -> np.ndarray:
    keys = ["W_z", "W_r", "W_h", "b_z", "b_r", "b_h", "W_out", "b_out"]
    if use_attention:
        keys += ["att_W", "att_b"]
    return np.concatenate([np.ravel(grads[k]) for k in keys])


class TestGruStep:
    def test_update_gate_one_keeps_state(self):
        # huge b_z drives z -> 1, so h_t == h_prev
        gru, _ = init_params(2, 3, RngStream(0), False)
        gru.b_z = np.full(3, 50.0)
        h_prev = np.array([0.3, -0.2, 0.9])
        h = gru_step(np.array([1.0, -1.0]), h_prev, gru)
        assert np.abs(h - h_prev).max() < 1e-12

    def test_update_gate_zero_takes_candidate(self):
        gru, _ = init_params(2, 3, RngStream(0), False)
        gru.b_z = np.full(3, -50.0)
        x = np.array([1.0, -1.0])
        h_prev = np.array([0.3, -0.2, 0.9])
        h = gru_step(x, h_prev, gru)
        cat1 = np.concatenate([x, h_prev])
        r = sigmoid(gru.W_r @ cat1 + gru.b_r)
        hc = np.tanh(gru.W_h @ np.concatenate([r * h_prev, x]) + gru.b_h)
        assert np.abs(h - hc).max() < 1e-12

    def test_transcription_oracle(self):
        # independently transcribed recurrence on random params
        gen = RngStream(8).generator()
        F, H = 3, 2
        gru = GRUParams(
            W_z=gen.normal(size=(H, F + H)),
            W_r=gen.normal(size=(H, F + H)),
            W_h=gen.normal(size=(H, H + F)),
            b_z=gen.normal(size=H),
            b_r=gen.normal(size=H),
            b_h=gen.normal(size=H),
            W_out=gen.normal(size=H),
            b_out=0.1,
            hidden_size=H,
        )
        x = gen.normal(size=F)
        h_prev = gen.normal(size=H)
        z = 1.0 / (1.0 + np.exp(-(gru.W_z @ np.r_[x, h_prev] + gru.b_z)))
        r = 1.0 / (1.0 + np.exp(-(gru.W_r @ np.r_[x, h_prev] + gru.b_r)))
        hc = np.tanh(gru.W_h @ np.r_[r * h_prev, x] + gru.b_h)
        expected = (1.0 - z) * hc + z * h_prev
        assert np.abs(gru_step(x, h_prev, gru) - expected).max() < 1e-14

    def test_hidden_state_bounded(self):
        gru, _ = init_params(2, 3, RngStream(1), False)
        h = np.zeros(3)
        gen = RngStream(2).generator()
        for _ in range(50):
            h = gru_step(gen.normal(scale=10.0, size=2), h, gru)
            assert np.all(np.abs(h) < 1.0)

    def test_shape_error(self):
        gru, _ = init_params(2, 3, RngStream(0), False)
        with pytest.raises(ShapeError):
            gru_step(np.zeros(5), np.zeros(3), gru)


class TestAttention:
    def test_zero_weights_uniform(self):
        att = AttentionParams(W=np.zeros((3, 3)), b=np.zeros(3))
        A = attention_matrix(np.random.default_rng(0).normal(size=(3, 4)), att)
        assert np.abs(A - 1.0 / 3.0).max() < 1e-12

    def test_columns_sum_to_one(self):
        gen = RngStream(3).generator()
        att = AttentionParams(W=gen.normal(size=(4, 4)), b=gen.normal(size=4))
        A = attention_matrix(gen.normal(size=(4, 6)), att)
        assert np.abs(A.sum(axis=0) - 1.0).max() < 1e-12
        assert (A > 0).all()

    def test_bias_shift_invariance(self):
        gen = RngStream(4).generator()
        att = AttentionParams(W=gen.normal(size=(3, 3)), b=gen.normal(size=3))
        X = gen.normal(size=(3, 5))
        shifted = AttentionParams(W=att.W, b=att.b + 7.5)
        assert np.abs(attention_matrix(X, att) - attention_matrix(X, shifted)).max() < 1e-9

    @pytest.mark.parametrize("F", [1, 3, 14])
    def test_cohort_block_matches_per_patient(self, F):
        gen = RngStream(F).generator()
        att = AttentionParams(W=gen.normal(size=(F, F)), b=gen.normal(size=F))
        X = 5.0 * gen.normal(size=(7, F, 9)) * (gen.random((7, F, 9)) < 0.7)
        A = attention_matrix(X, att)
        assert A.shape == X.shape
        for i in range(X.shape[0]):
            assert np.array_equal(A[i], attention_matrix(X[i], att))

    def test_is_the_kernels_map(self):
        """The map the CLI reports is the one the forward pass weights its
        input with, bit for bit, for a batch of any size."""
        cohort = synth_cohort(SynthConfig(n_patients=90, signal_strength=6.0, seed=3))
        model = make_model(F=cohort.F, H=4, seed=5, use_attention=True)
        Xin = cohort.X * cohort.M
        reported = attention_matrix(Xin, model.attention)
        for rows in (1, 64, len(Xin)):
            _, cache = _forward_core(Xin[:rows], model.gru, model.attention, want_cache=True)
            assert np.array_equal(cache["A"], reported[:rows]), rows

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3, 4), (2, 4, 5)])
    def test_shape_error(self, shape):
        att = AttentionParams(W=np.zeros((3, 3)), b=np.zeros(3))
        with pytest.raises(ShapeError):
            attention_matrix(np.zeros(shape), att)


class TestForward:
    def test_all_zero_input_constant_per_step(self):
        model = make_model()
        X = np.zeros((3, 5))
        M = np.ones((3, 5))
        yhat = forward(X, M, model)
        # zero input and zero initial state do not make the output constant
        # across steps (state evolves), but every value is a probability
        assert np.all((yhat > 0) & (yhat < 1))

    def test_masked_cells_bitwise_irrelevant(self):
        for use_att in (False, True):
            model = make_model(use_attention=use_att)
            gen = RngStream(6).generator()
            X = gen.normal(size=(3, 5))
            M = (gen.random((3, 5)) < 0.6).astype(float)
            X2 = X.copy()
            X2[M == 0.0] = gen.normal(scale=100.0, size=int((M == 0).sum()))
            a = forward(X, M, model)
            b = forward(X2, M, model)
            assert np.array_equal(a, b)

    def test_single_step_matches_gru_step(self):
        model = make_model(F=2, H=3, seed=9)
        x = np.array([[0.5], [1.5]])
        M = np.ones((2, 1))
        h = gru_step(x[:, 0], np.zeros(3), model.gru)
        expected = sigmoid(np.array([model.gru.W_out @ h + model.gru.b_out]))[0]
        got = forward(x, M, model)[0]
        assert abs(got - expected) < 1e-14

    @pytest.mark.parametrize("use_att", [False, True])
    def test_full_sequence_matches_gru_step_loop(self, use_att):
        model = make_model(F=4, H=3, seed=13, use_attention=use_att)
        gen = RngStream(14).generator()
        Xin = gen.normal(size=(5, 4, 7)) * (gen.random((5, 4, 7)) < 0.7)
        yhat = forward_prepared(Xin, model.gru, model.attention)
        g = model.gru
        for i in range(Xin.shape[0]):
            Xeff = Xin[i]
            if use_att:
                Xeff = Xeff * attention_matrix(Xin[i], model.attention)
            h = np.zeros(3)
            for t in range(Xin.shape[2]):
                h = gru_step(Xeff[:, t], h, g)
                expected = 1.0 / (1.0 + np.exp(-(g.W_out @ h + g.b_out)))
                assert abs(yhat[i, t] - expected) < 1e-12

    @pytest.mark.parametrize("use_att", [False, True])
    def test_cached_and_plain_forward_bit_identical(self, use_att):
        model = make_model(F=4, H=3, seed=15, use_attention=use_att)
        gen = RngStream(16).generator()
        Xin = gen.normal(size=(9, 4, 6))
        keep = (gen.random((9, 3, 6)) >= 0.4) / 0.6
        for mask in (None, keep):
            plain = _forward_core(Xin, model.gru, model.attention, dropout_mask=mask)
            cached, _ = _forward_core(
                Xin, model.gru, model.attention, dropout_mask=mask, want_cache=True
            )
            assert np.array_equal(plain, cached)

    def test_attention_rescales_input(self):
        model = make_model(F=3, H=4, seed=2, use_attention=True)
        gen = RngStream(7).generator()
        X = gen.normal(size=(3, 4))
        M = np.ones((3, 4))
        A = attention_matrix(X * M, model.attention)
        plain = TrainedModel(
            gru=model.gru, attention=None,
            schema_fingerprint=model.schema_fingerprint,
        )
        assert np.abs(forward(X, M, model) - forward(X * A, M, plain)).max() < 1e-12

    def test_feature_count_mismatch(self):
        model = make_model(F=3)
        with pytest.raises(ShapeError):
            forward(np.zeros((4, 5)), np.ones((4, 5)), model)


class TestTbbce:
    def test_balanced_halves_plain_bce(self):
        gen = RngStream(11).generator()
        yhat = gen.random((4, 6))
        y = (gen.random((4, 6)) < 0.5).astype(float)
        valid = np.ones((4, 6), dtype=bool)
        beta = ClassWeights(beta=np.full(6, 0.5))
        plain = -np.mean(y * np.log(yhat) + (1 - y) * np.log(1 - yhat))
        assert abs(tbbce(yhat, y, valid, beta) - 0.5 * plain) < 1e-12

    def test_hand_case(self):
        yhat = np.array([[0.5]])
        y = np.array([[1.0]])
        valid = np.ones((1, 1), dtype=bool)
        beta = ClassWeights(beta=np.array([0.9]))
        assert abs(tbbce(yhat, y, valid, beta) - 0.9 * np.log(2.0)) < 1e-9

    def test_invalid_steps_excluded(self):
        yhat = np.array([[0.5, 0.0001]])
        y = np.array([[1.0, 1.0]])
        valid = np.array([[True, False]])
        beta = ClassWeights(beta=np.full(2, 0.5))
        assert abs(tbbce(yhat, y, valid, beta) - 0.5 * np.log(2.0)) < 1e-12

    def test_no_valid_pairs(self):
        beta = ClassWeights(beta=np.full(2, 0.5))
        with pytest.raises(DataError):
            tbbce(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2), dtype=bool), beta)

    def test_perfect_prediction_near_zero(self):
        yhat = np.array([[1.0, 0.0]])
        y = np.array([[1.0, 0.0]])
        valid = np.ones((1, 2), dtype=bool)
        beta = ClassWeights(beta=np.full(2, 0.5))
        assert tbbce(yhat, y, valid, beta) < 1e-6


class TestBackward:
    @pytest.mark.parametrize("use_att", [False, True])
    def test_matches_finite_differences(self, use_att):
        cohort = toy_cohort([(1, 4), (None, 5), (2, 3)], F=4, T=5, seed=3)
        model = make_model(F=4, H=3, seed=1, use_attention=use_att)
        beta = compute_class_weights(cohort)
        batch = cohort.stacked()
        grads = flatten_grads(backward(batch, model, beta), use_att)

        X, M, y, valid = batch
        Xin = X * M

        def loss_at(theta):
            probe = make_model(F=4, H=3, seed=1, use_attention=use_att)
            set_params(probe, theta)
            from tsxplain.model import forward_prepared
            yhat = forward_prepared(Xin, probe.gru, probe.attention)
            return tbbce(yhat, y, valid, beta)

        theta0 = flatten_params(model)
        fd = np.zeros_like(theta0)
        h = 1e-6
        for i in range(theta0.size):
            tp, tm = theta0.copy(), theta0.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (loss_at(tp) - loss_at(tm)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(grads - fd) / denom) < 1e-4

    @pytest.mark.parametrize("use_att", [False, True])
    def test_dropout_gradients_match_finite_differences(self, use_att):
        cohort = toy_cohort([(1, 4), (None, 5), (2, 3)], F=4, T=5, seed=17)
        model = make_model(F=4, H=3, seed=18, use_attention=use_att)
        beta = compute_class_weights(cohort)
        X, M, y, valid = cohort.stacked()
        Xin = X * M
        # a fixed keep-mask with inverted-dropout scaling, as _fit draws it
        keep = (RngStream(19).generator().random((3, 3, 5)) >= 0.3) / 0.7
        _, cache = _forward_core(
            Xin, model.gru, model.attention, dropout_mask=keep, want_cache=True
        )
        grads = flatten_grads(
            _backward_core(cache, model.gru, model.attention, y, valid, beta.beta,
                           dropout_mask=keep),
            use_att,
        )

        def loss_at(theta):
            probe = make_model(F=4, H=3, seed=18, use_attention=use_att)
            set_params(probe, theta)
            yhat = _forward_core(Xin, probe.gru, probe.attention, dropout_mask=keep)
            return tbbce(yhat, y, valid, beta)

        theta0 = flatten_params(model)
        fd = np.zeros_like(theta0)
        h = 1e-6
        for i in range(theta0.size):
            tp, tm = theta0.copy(), theta0.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (loss_at(tp) - loss_at(tm)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(grads - fd) / denom) < 1e-4

    @pytest.mark.parametrize("use_att", [False, True])
    @pytest.mark.parametrize("H", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_kernel_bit_identical_to_per_step_oracle(self, use_att, H, n):
        model = make_model(F=4, H=H, seed=21, use_attention=use_att)
        gen = RngStream(22).generator()
        Xin = gen.normal(size=(n, 4, 6)) * (gen.random((n, 4, 6)) < 0.8)
        y = (gen.random((n, 6)) < 0.4).astype(float)
        valid = gen.random((n, 6)) < 0.9
        valid[0, 0] = True
        beta = gen.uniform(0.5, 0.9, 6)
        keep = (gen.random((n, H, 6)) >= 0.3) / 0.7
        for mask in (None, keep):
            want_yhat, want = gru_bptt(Xin, model.gru, model.attention, y, valid,
                                       beta, dropout_mask=mask)
            yhat, cache = _forward_core(Xin, model.gru, model.attention,
                                        dropout_mask=mask, want_cache=True)
            got = _backward_core(cache, model.gru, model.attention, y, valid, beta,
                                 dropout_mask=mask)
            assert np.array_equal(yhat, want_yhat)
            assert np.array_equal(
                _forward_core(Xin, model.gru, model.attention, dropout_mask=mask),
                want_yhat,
            )
            assert sorted(got) == sorted(want)
            for k in want:
                assert np.array_equal(np.asarray(got[k]), np.asarray(want[k])), k

    @pytest.mark.parametrize("use_att", [False, True])
    @pytest.mark.parametrize("H", [1, 8])
    @pytest.mark.parametrize("n", [1, 41, 64])
    @pytest.mark.parametrize("G", [1, 3])
    def test_stacked_kernel_equals_per_model_calls(self, use_att, H, n, G):
        """Models stacked on a leading axis get, slice for slice, the bits of
        one call per model, with and without dropout masks."""
        F, T = 5, 6
        models = [make_model(F=F, H=H, seed=40 + g, use_attention=use_att) for g in range(G)]
        for g, m in enumerate(models):  # nonzero biases, so every term is exercised
            gen = RngStream(50 + g).generator()
            m.gru.b_z, m.gru.b_r, m.gru.b_h = gen.normal(size=(3, H))
            m.gru.b_out = float(gen.normal())
        gru = GRUParams(*(np.array([getattr(m.gru, k) for m in models]) for k in GRU_ARRAYS),
                        hidden_size=H)
        att = (AttentionParams(np.array([m.attention.W for m in models]),
                               np.array([m.attention.b for m in models])) if use_att else None)
        gen = RngStream(41).generator()
        Xin = gen.normal(size=(G, n, F, T)) * (gen.random((G, n, F, T)) < 0.8)
        y = (gen.random((G, n, T)) < 0.4).astype(float)
        valid = gen.random((G, n, T)) < 0.9
        valid[:, 0, 0] = True
        beta = gen.uniform(0.5, 0.9, (G, T))
        keep = (gen.random((G, n, H, T)) >= 0.3) / 0.7
        for mask in (None, keep):
            yhat, cache = _forward_core(Xin, gru, att, dropout_mask=mask, want_cache=True)
            grads = _backward_core(cache, gru, att, y, valid, beta, dropout_mask=mask)
            plain = _forward_core(Xin, gru, att, dropout_mask=mask)
            for g, m in enumerate(models):
                mask_g = None if mask is None else mask[g]
                want_yhat, want_cache = _forward_core(Xin[g], m.gru, m.attention,
                                                      dropout_mask=mask_g, want_cache=True)
                want = _backward_core(want_cache, m.gru, m.attention, y[g], valid[g], beta[g],
                                      dropout_mask=mask_g)
                assert np.array_equal(yhat[g], want_yhat)
                assert np.array_equal(plain[g], want_yhat)
                assert sorted(grads) == sorted(want)
                for k in want:
                    assert np.array_equal(grads[k][g], want[k]), k

    @pytest.mark.parametrize("H", [1, 8])
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_attention_contractions_near_replaced_einsums(self, n, H, monkeypatch):
        """The kernel's attention pre-activation and att_W gradient stay
        within 1e-12 relative error of the einsum forms they replaced."""
        model = make_model(F=14, H=H, seed=26, use_attention=True)
        gen = RngStream(27).generator()
        Xin = 3.0 * gen.normal(size=(n, 14, 9)) * (gen.random((n, 14, 9)) < 0.8)
        y = (gen.random((n, 9)) < 0.4).astype(float)
        valid = gen.random((n, 9)) < 0.9
        valid[0, 0] = True
        beta = gen.uniform(0.5, 0.9, 9)
        seen, real = [], model_mod.softmax_axis

        def softmax_axis(m, axis):
            seen.append(m.copy())
            return real(m, axis)

        monkeypatch.setattr(model_mod, "softmax_axis", softmax_axis)
        _, cache = _forward_core(Xin, model.gru, model.attention, want_cache=True)
        got = _backward_core(cache, model.gru, model.attention, y, valid, beta)
        _, want = gru_bptt(Xin, model.gru, model.attention, y, valid, beta, einsum=True)
        [pre] = seen
        pairs = [(pre, oracles.attention_pre_einsum(model.attention.W, model.attention.b, Xin)),
                 (got["att_W"], want["att_W"])]
        for a, b in pairs:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_ones_mask_equals_no_mask(self):
        """A stack mixing dropout and no dropout gives the latter a mask of
        exact ones, which must leave its bits as no mask does."""
        model = make_model(F=4, H=3, seed=23, use_attention=True)
        gen = RngStream(24).generator()
        Xin = gen.normal(size=(7, 4, 5))
        y = (gen.random((7, 5)) < 0.4).astype(float)
        valid = np.ones((7, 5), dtype=bool)
        beta = gen.uniform(0.5, 0.9, 5)
        got, want = [], []
        for mask, out in ((np.ones((7, 3, 5)), got), (None, want)):
            yhat, cache = _forward_core(Xin, model.gru, model.attention, dropout_mask=mask,
                                        want_cache=True)
            out.append(yhat)
            out.append(_backward_core(cache, model.gru, model.attention, y, valid, beta,
                                      dropout_mask=mask))
        assert np.array_equal(got[0], want[0])
        for k in want[1]:
            assert np.array_equal(got[1][k], want[1][k]), k

    def test_masked_values_do_not_move_gradients(self):
        cohort = toy_cohort([(1, 4), (None, 5)], F=3, T=6, seed=4)
        model = make_model(F=3, H=3, seed=2, use_attention=True)
        beta = compute_class_weights(cohort)
        X, M, y, valid = cohort.stacked()
        M[:, 0, :3] = 0.0
        g1 = backward((X, M, y, valid), model, beta)
        X2 = X.copy()
        X2[:, 0, :3] = 999.0
        g2 = backward((X2, M, y, valid), model, beta)
        for k in g1:
            assert np.array_equal(np.asarray(g1[k]), np.asarray(g2[k]))

    def test_stationary_output_bias(self):
        # with yhat == beta-weighted optimum at every step the b_out gradient
        # vanishes; simplest case: balanced labels, yhat = 0.5 via zero params
        cohort = toy_cohort([(1, 4), (None, 4)], F=3, T=6, seed=5)
        model = make_model(F=3, H=3)
        model.gru.W_z[:] = 0.0
        model.gru.W_r[:] = 0.0
        model.gru.W_h[:] = 0.0
        model.gru.W_out[:] = 0.0
        model.gru.b_out = 0.0
        beta = compute_class_weights(cohort)
        X, M, y, valid = cohort.stacked()
        # keep only steps where both patients are valid and labels disagree
        valid = valid & np.array([[True] * 4 + [False] * 2] * 2)
        y = np.where(valid, y, 0.0)
        grads = backward((X, M, y, valid), model, beta)
        assert abs(grads["b_out"]) <= 1e-10


class TestRowBlocks:
    def test_blocks_cover_the_rows_without_a_one_row_block(self):
        for K in range(4 * ROW_BLOCK + 3):
            blocks = row_blocks(K)
            sizes = [stop - start for start, stop in blocks]
            assert blocks[0][0] == 0 and blocks[-1][1] == K
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert max(sizes) <= ROW_BLOCK and (K <= 1 or min(sizes) > 1)
            assert all(start % (ROW_BLOCK // 2) == 0 for start, _ in blocks)
            assert (len(blocks) == 1) == (K <= ROW_BLOCK)


    @pytest.mark.parametrize("use_att", [False, True])
    @pytest.mark.parametrize("H", range(1, 13))
    def test_one_row_slices_keep_their_bits(self, H, use_att):
        """IT-SHAP forwards every patient's empty and full coalition rows as
        one-row slices on the kernel's leading axis, with one set of
        parameters: numpy runs each slice's matmuls on their own, down the
        one-row path, so a slice has the bits of its own one-row forward."""
        F, T = 5, 7
        model = make_model(F=F, H=H, seed=60 + H, use_attention=use_att)
        gen = RngStream(61 + H).generator()
        model.gru.b_z, model.gru.b_r, model.gru.b_h = gen.normal(size=(3, H))
        model.gru.b_out = float(gen.normal())
        for S in (1, 2, 3, 64, 129, 130):
            Xin = gen.normal(size=(S, 1, F, T)) * (gen.random((S, 1, F, T)) < 0.8)
            got = _forward_core(Xin, model.gru, model.attention)
            for s in range(S):
                assert np.array_equal(got[s], forward_prepared(Xin[s], model.gru,
                                                               model.attention)), (S, s)


class TestTrain:
    @pytest.mark.parametrize("use_attention", [False, True])
    def test_cohort_blocks_unwritten(self, use_attention):
        """Every fit reads the cohort's X, which holds X⊙M, as its input,
        through its own rows: with the cohort frozen, a write to it would
        raise."""
        cohort = freeze(toy_cohort([(1, 4)] * 4 + [(None, 4)] * 6, seed=6))
        cfg = TrainConfig(max_epochs=2, batch_size=4, cv_folds=2, seed=7,
                          grid_learning_rates=(0.1, 0.3))
        model = train(cohort, cfg, use_attention=use_attention)
        assert len(model.history["val_loss"]) == 2

    def test_no_subset_copies(self, monkeypatch):
        """Folds, the final split and every fit read the training rows as
        indices into the one cohort: ``train`` never copies a subset, also
        when it is given the rows of a split."""
        calls = []
        subset = Cohort.subset
        monkeypatch.setattr(Cohort, "subset",
                            lambda self, idx: calls.append(len(idx)) or subset(self, idx))
        cohort = toy_cohort([(1, 4)] * 6 + [(None, 4)] * 9, seed=6)
        cfg = TrainConfig(max_epochs=2, batch_size=4, cv_folds=2, seed=7,
                          grid_learning_rates=(0.1, 0.3))
        train(cohort, cfg, use_attention=False)
        train(cohort, cfg, use_attention=True, rows=np.arange(1, 15, 1))
        assert calls == []

    def test_rows_match_a_copied_subset(self):
        """Training on some rows of a cohort writes the checkpoint that
        training on a copy of those rows writes."""
        cohort = synth_cohort(SynthConfig(n_patients=60, signal_strength=6.0, T=6, seed=2))
        rows = np.flatnonzero(RngStream(3).generator().random(60) < 0.7)
        cfg = TrainConfig(max_epochs=3, batch_size=8, cv_folds=2, seed=4, hidden_size=3,
                          grid_learning_rates=(0.2, 0.6))
        for use_attention in (False, True):
            a = train(cohort, cfg, use_attention, rows=rows)
            b = train(cohort.subset(rows), cfg, use_attention)
            assert a.history == b.history
            for k in GRU_ARRAYS:
                assert np.array_equal(getattr(a.gru, k), getattr(b.gru, k)), k

    def test_cv_memory_below_its_fold_copies(self):
        """The CV stack holds index arrays, not copies: its traced peak, most
        of it the stack's per-step caches, stays below half the bytes that
        copying every fit's training and validation patients (X, M and y)
        would take."""
        cohort = synth_cohort(SynthConfig(n_patients=1500, signal_strength=6.0, seed=5))
        cfg = TrainConfig(max_epochs=1, batch_size=64, cv_folds=3, seed=6,
                          grid_learning_rates=(0.5, 1.0))
        points = cfg.grid_points()
        rows = np.arange(len(cohort.ids))
        tracemalloc.start()
        try:
            model_mod._cv_select(cohort, rows, points, cfg, RngStream(cfg.seed), False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_patient = sum(b[0].nbytes for b in (cohort.X, cohort.M, cohort.y))
        fold_copies = len(points) * cfg.cv_folds * len(rows) * per_patient
        assert peak < fold_copies / 2, (peak, fold_copies)

    def test_deterministic(self):
        cohort = toy_cohort([(1, 4)] * 4 + [(None, 4)] * 6, seed=6)
        cfg = TrainConfig(max_epochs=3, batch_size=4, seed=7)
        a = train(cohort, cfg, use_attention=False)
        b = train(cohort, cfg, use_attention=False)
        assert np.array_equal(a.gru.W_z, b.gru.W_z)
        assert np.array_equal(a.gru.W_out, b.gru.W_out)
        assert a.history["val_loss"] == b.history["val_loss"]

    def test_loss_decreases(self):
        cohort = synth_cohort(SynthConfig(n_patients=80, signal_strength=6.0, seed=1))
        cfg = TrainConfig(max_epochs=8, learning_rate=0.25, patience=8, seed=0)
        model = train(cohort, cfg, use_attention=False)
        losses = model.history["train_loss"]
        assert losses[-1] < losses[0]

    def test_patience_zero_stops_at_first_regression(self):
        cohort = toy_cohort([(1, 4)] * 5 + [(None, 4)] * 7, seed=8)
        cfg = TrainConfig(max_epochs=50, patience=0, learning_rate=2.0, seed=3)
        model = train(cohort, cfg, use_attention=False)
        hist = model.history
        if len(hist["val_loss"]) < 50:  # stopped early
            assert len(hist["val_loss"]) == hist["best_epoch"] + 2

    def test_grid_selection_recorded(self):
        cohort = toy_cohort([(1, 4)] * 6 + [(None, 4)] * 8, seed=9)
        cfg = TrainConfig(
            max_epochs=2, cv_folds=2, seed=0,
            grid_learning_rates=(0.1, 0.5), grid_hidden_sizes=(4,),
        )
        model = train(cohort, cfg, use_attention=False)
        sel = model.history["selected"]
        assert sel["learning_rate"] in (0.1, 0.5)
        assert sel["hidden_size"] == 4

    @pytest.mark.parametrize("use_att", [False, True])
    @pytest.mark.parametrize("folds", [2, 3])
    @pytest.mark.parametrize("patience", [0, 1, 2])
    def test_lockstep_matches_sequential_oracle(self, tmp_path, monkeypatch, use_att, folds,
                                                patience):
        """CV fits stepped in lockstep keep the bits of fits run one at a
        time: fold scores, best epochs and parameters, the selected grid
        point and the checkpoint. The grid makes two stacks (hidden sizes 2
        and 4) mixing dropout 0 and 0.3, the batch size divides no fold
        size, and the patience makes fits leave their stack at different
        epochs."""
        cohort = synth_cohort(SynthConfig(n_patients=29, mdr_fraction=0.3, signal_strength=6.0,
                                          T=5, seed=3))
        cfg = TrainConfig(max_epochs=5, patience=patience, batch_size=6, cv_folds=folds, seed=1,
                          grid_learning_rates=(0.5, 2.0), grid_dropout_rates=(0.0, 0.3),
                          grid_hidden_sizes=(2, 4))
        # each run's results, keyed by its random stream: (2, gi, fi) for a
        # CV fit, (4,) for the final fit
        got, want = {}, {}

        def lockstep(fits, *args):
            results = _fit(fits, *args)
            got.update((f.rng.path, result) for f, result in zip(fits, results))
            return results

        def sequential(ftrain, fval, lr, dr, H, cfg, rng, use_attention):
            if rng.path != (4,):
                assert len(ftrain.ids) % cfg.batch_size
            want[rng.path] = fit_sequential(ftrain, fval, lr, dr, H, cfg, rng, use_attention)
            return want[rng.path]

        monkeypatch.setattr(model_mod, "_fit", lockstep)
        monkeypatch.setattr(oracles, "fit_sequential", sequential)
        trained = train(cohort, cfg, use_att)
        expected = train_sequential(cohort, cfg, use_att)

        assert sorted(got) == sorted(want)
        assert len(got) == 8 * folds + 1
        for path, (want_gru, want_att, want_hist) in want.items():
            gru, att, hist = got[path]
            assert hist["best_val_loss"] == want_hist["best_val_loss"]
            assert hist["best_epoch"] == want_hist["best_epoch"]
            assert hist["val_loss"] == want_hist["val_loss"]
            assert ("train_loss" in hist) == (path == (4,))
            for k in GRU_ARRAYS:
                assert np.array_equal(getattr(gru, k), getattr(want_gru, k)), k
            if use_att:
                assert np.array_equal(att.W, want_att.W) and np.array_equal(att.b, want_att.b)
        assert len({len(hist["val_loss"]) for _, _, hist in want.values()}) > 1

        assert trained.history == expected.history
        save_model(trained, tmp_path / "lockstep.txt")
        save_model(expected, tmp_path / "sequential.txt")
        assert (tmp_path / "lockstep.txt").read_bytes() == (tmp_path / "sequential.txt").read_bytes()

    def test_non_finite_final_fit_is_named(self, monkeypatch):
        monkeypatch.setattr(model_mod, "_epoch_loss", lambda *args: float("nan"))
        cohort = toy_cohort([(1, 4)] * 4 + [(None, 4)] * 6, seed=6)
        with pytest.raises(FloatingPointError,
                           match="epoch 1 of the final fit: train_loss nan, val_loss nan"):
            train(cohort, TrainConfig(max_epochs=2, batch_size=4), use_attention=False)

    def test_empty_cohort(self):
        with pytest.raises(DataError):
            train(toy_cohort([]), TrainConfig(), use_attention=False)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(dropout_rate=1.0)

    @pytest.mark.parametrize("field", [
        {"max_epochs": 2.5}, {"max_epochs": True}, {"hidden_size": 0},
        {"patience": -1}, {"batch_size": "16"}, {"cv_folds": 0}, {"seed": -1},
        {"threshold": float("nan")}, {"dropout_rate": None},
        {"grid_hidden_sizes": (4, 2.0)}, {"grid_dropout_rates": (0.0, -0.1)},
        {"cv_folds": 1},  # kfold needs two folds
    ])
    def test_badly_typed_field(self, field):
        with pytest.raises(ConfigError):
            TrainConfig(**field)


def _array_span(lines, name):
    """Line range of an array's header and its rows."""
    start = next(i for i, line in enumerate(lines) if line.startswith(f"array {name} "))
    return start, start + 1 + int(lines[start].split()[2])


def _duplicate_array(lines):
    start, end = _array_span(lines, "b_z")
    return lines[:end] + lines[start:end] + lines[end:]


def _swap_arrays(lines):
    (s1, e1), (s2, e2) = _array_span(lines, "W_z"), _array_span(lines, "W_r")
    return lines[:s1] + lines[s2:e2] + lines[s1:e1] + lines[e2:]


def _set_cell(lines, index, value):
    cells = lines[index].split(" ")
    return lines[:index] + [" ".join([value] + cells[1:])] + lines[index + 1 :]


# each edit keeps every line well formed on its own but leaves the layout
# that save_model writes or puts a non-finite value into it
OFF_LAYOUT = {
    "duplicate array": _duplicate_array,
    "second threshold": lambda lines: lines[:4] + [lines[3]] + lines[4:],
    "unknown header key": lambda lines: lines[:5] + ["colour red"] + lines[5:],
    "extra array": lambda lines: lines[:-2] + ["array extra 1 1", "0x0.0p+0"] + lines[-2:],
    "reordered arrays": _swap_arrays,
    "reordered history": lambda lines: lines[:-2] + [lines[-1], lines[-2]],
    "header after arrays": lambda lines: lines[:1] + lines[2:-2] + [lines[1]] + lines[-2:],
    "line after history": lambda lines: lines + ["history best_epoch 0x1.0p+0"],
    "blank line": lambda lines: lines[:5] + [""] + lines[5:],
    "attention flag without arrays": lambda lines: lines[:4] + ["attention 1"] + lines[5:],
    "padded hidden_size": lambda lines: [l.replace("hidden_size 4", "hidden_size 04")
                                         for l in lines],
    "padded W_z width": lambda lines: [l.replace("array W_z 4 7", "array W_z 4 07")
                                       for l in lines],
    "double space in a row": lambda lines: lines[:6] + [lines[6].replace(" ", "  ", 1)]
    + lines[7:],
    # nan and inf parse as hex floats
    "nan weight": lambda lines: _set_cell(lines, _array_span(lines, "W_out")[0] + 1, "nan"),
    "inf weight": lambda lines: _set_cell(lines, 6, "-inf"),
    "inf threshold": lambda lines: lines[:3] + ["threshold inf"] + lines[4:],
    "inf val_loss": lambda lines: lines[:-1] + [lines[-1] + " inf"],
    "nan train_loss": lambda lines: lines[:-2] + ["history train_loss nan"] + lines[-1:],
}


class TestCheckpoint:
    @pytest.mark.parametrize("use_att", [False, True])
    def test_round_trip_bit_exact(self, tmp_path, use_att):
        cohort = toy_cohort([(1, 4)] * 3 + [(None, 4)] * 5, seed=10)
        cfg = TrainConfig(max_epochs=2, seed=1)
        model = train(cohort, cfg, use_attention=use_att)
        path = tmp_path / "ckpt.txt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.gru.W_z, model.gru.W_z)
        assert np.array_equal(back.gru.W_h, model.gru.W_h)
        assert np.array_equal(back.gru.W_out, model.gru.W_out)
        assert back.gru.b_out == model.gru.b_out
        assert back.schema_fingerprint == model.schema_fingerprint
        assert back.threshold == model.threshold
        assert back.history["val_loss"] == model.history["val_loss"]
        if use_att:
            assert np.array_equal(back.attention.W, model.attention.W)
            assert np.array_equal(back.attention.b, model.attention.b)
        else:
            assert back.attention is None
        # predictions identical bitwise
        gen = RngStream(12).generator()
        X = gen.normal(size=(cohort.F, cohort.T))
        M = np.ones((cohort.F, cohort.T))
        assert np.array_equal(forward(X, M, model), forward(X, M, back))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ConfigError):
            load_model(path)

    def test_cut_inside_last_line_is_data_error(self, tmp_path):
        model = make_model(F=3, H=4, seed=20)
        model.history = {"train_loss": [0.5, 0.4], "val_loss": [0.6, 0.55]}
        path = tmp_path / "ckpt.txt"
        save_model(model, path)
        # the cut leaves "0x1.19999" in val_loss, itself a valid hex float
        path.write_text(path.read_text()[:-12])
        with pytest.raises(DataError, match="truncated"):
            load_model(path)

    @pytest.mark.parametrize("damage", [
        lambda lines: [],
        lambda lines: [l for l in lines if not l.startswith("hidden_size")],
        lambda lines: [l.replace("attention 0", "attention 2") for l in lines],
        lambda lines: [l.replace("array W_h 4 7", "array W_h 4 6") for l in lines],
        lambda lines: [l.replace("array W_h 4 7", "array W_h four 7") for l in lines],
        lambda lines: [l.replace("array b_out 1 1", "array b_out 1 2") for l in lines],
        lambda lines: [l.replace("0x", "0y", 1) if l.startswith("0x") else l
                       for l in lines],
        lambda lines: [l for l in lines if not l.startswith("history val_loss")],
        lambda lines: [l.replace("threshold 0x", "threshold zz") for l in lines],
        *(pytest.param(damage, id=name) for name, damage in OFF_LAYOUT.items()),
    ])
    def test_malformed_checkpoint_is_data_error(self, tmp_path, damage):
        model = make_model(F=3, H=4, seed=20)
        model.history = {"train_loss": [0.5], "val_loss": [0.6]}
        path = tmp_path / "ckpt.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        damaged = damage(lines)
        assert damaged != lines
        path.write_text("".join(line + "\n" for line in damaged))
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("use_att", [False, True])
    @pytest.mark.parametrize("history", [
        {}, {"train_loss": [0.5, 0.25, 0.3], "val_loss": [0.75, 0.625, 0.7]},
    ], ids=["no history", "history"])
    def test_load_then_save_reproduces_file(self, tmp_path, use_att, history):
        model = make_model(F=3, H=4, seed=21, use_attention=use_att)
        model.history = history
        model.threshold = 0.3
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_model(model, first)
        save_model(load_model(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_not_text_is_data_error(self, tmp_path):
        model = make_model(F=3, H=4, seed=20)
        path = tmp_path / "ckpt.txt"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"0x", b"\xff\xfe", 1))
        with pytest.raises(DataError):
            load_model(path)
