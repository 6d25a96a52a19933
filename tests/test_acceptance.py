"""Acceptance suite: one test per release criterion, each printing a
terminal-visible pass/fail line with the measured quantity."""

import math
import time

import numpy as np

from tsxplain.cmi import (
    CmiConfig,
    cmi_feature_scores,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    joint_entropy,
    mutual_information,
)
from tsxplain.data import (
    Cohort,
    SynthConfig,
    compute_class_weights,
    planted_features,
    planted_steps,
    split_train_test,
    synth_cohort,
)
from tsxplain.evaluation import evaluate, roc_auc_step
from tsxplain.itshap import (
    ExplainerConfig,
    aggregate_by_class,
    background_matrix,
    explain_patient,
    explain_step,
    shapley_values,
)
from tsxplain.model import (
    ClassWeights,
    TrainConfig,
    attention_matrix,
    backward,
    forward,
    forward_prepared,
    tbbce,
    train,
)
from tsxplain.numerics import RngStream

from conftest import toy_cohort
from test_evaluation import pairwise_auc
from test_itshap import permutation_shapley
from test_model import flatten_grads, flatten_params, make_model, set_params


def report(capsys, number, description, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number:2d}] {verdict}: {description} ({detail})")
    assert ok, f"criterion {number} failed: {description} ({detail})"


def test_criterion_01_gradient_exactness(capsys):
    start = time.perf_counter()
    worst = 0.0
    cohort = toy_cohort([(1, 4), (None, 5), (2, 3)], F=4, T=5, seed=3)
    beta = compute_class_weights(cohort)
    X, M, y, valid = cohort.stacked()
    Xin = X * M
    for use_att in (False, True):
        model = make_model(F=4, H=3, seed=1, use_attention=use_att)
        grads = flatten_grads(backward((X, M, y, valid), model, beta), use_att)

        def loss_at(theta):
            probe = make_model(F=4, H=3, seed=1, use_attention=use_att)
            set_params(probe, theta)
            yhat = forward_prepared(Xin, probe.gru, probe.attention)
            return tbbce(yhat, y, valid, beta)

        theta0 = flatten_params(model)
        fd = np.zeros_like(theta0)
        h = 1e-5
        for i in range(theta0.size):
            tp, tm = theta0.copy(), theta0.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (loss_at(tp) - loss_at(tm)) / (2 * h)
        rel = np.abs(grads - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 5.0
    report(
        capsys, 1,
        "BPTT gradients match central finite differences (rel err <= 1e-4, < 5 s)",
        ok, f"max rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_balanced_loss_algebra(capsys):
    gen = RngStream(11).generator()
    yhat = gen.random((5, 7)) * 0.98 + 0.01
    y = (gen.random((5, 7)) < 0.5).astype(float)
    valid = gen.random((5, 7)) < 0.8
    valid[0, 0] = True
    beta_half = ClassWeights(beta=np.full(7, 0.5))
    plain = -np.mean((y * np.log(yhat) + (1 - y) * np.log(1 - yhat))[valid])
    err_half = abs(tbbce(yhat, y, valid, beta_half) - 0.5 * plain)

    hand = tbbce(
        np.array([[0.5]]), np.array([[1.0]]), np.ones((1, 1), dtype=bool),
        ClassWeights(beta=np.array([0.9])),
    )
    err_hand = abs(hand - 0.9 * math.log(2.0))
    ok = err_half <= 1e-12 and err_hand <= 1e-9
    report(
        capsys, 2,
        "balanced loss: beta=0.5 halves BCE (1e-12); hand case 0.9*ln2 (1e-9)",
        ok, f"half-BCE err {err_half:.2e}, hand err {err_hand:.2e}",
    )


def test_criterion_03_mask_neutrality(capsys):
    gen = RngStream(30).generator()
    cohort = toy_cohort([(1, 5), (None, 6), (2, 4)], F=3, T=6, seed=31)
    for p in cohort.patients:
        drop = gen.random(p.M.shape) < 0.3
        p.M[drop & (p.M == 1.0)] = 0.0
        p.X[p.M == 0.0] = 0.0
    beta = compute_class_weights(cohort)
    X, M, y, valid = cohort.stacked()
    X2 = X.copy()
    X2[M == 0.0] = gen.normal(scale=1e3, size=int((M == 0.0).sum()))

    forward_exact = True
    grad_dev = 0.0
    for use_att in (False, True):
        model = make_model(F=3, H=4, seed=32, use_attention=use_att)
        for i in range(len(cohort.patients)):
            a = forward(X[i], M[i], model)
            b = forward(X2[i], M[i], model)
            forward_exact &= bool(np.array_equal(a, b))
        g1 = backward((X, M, y, valid), model, beta)
        g2 = backward((X2, M, y, valid), model, beta)
        for k in g1:
            grad_dev = max(grad_dev, float(np.abs(np.asarray(g1[k]) - np.asarray(g2[k])).max()))

    perturbed = Cohort(
        cohort.schema,
        [type(p)(id=p.id, X=X2[i], M=p.M, y=p.y, stay_length=p.stay_length)
         for i, p in enumerate(cohort.patients)],
        cohort.T,
    )
    s1 = cmi_feature_scores(cohort, CmiConfig())
    s2 = cmi_feature_scores(perturbed, CmiConfig())
    cmi_dev = float(np.abs(s1.S - s2.S).max())

    model = make_model(F=3, H=4, seed=32, use_attention=True)
    B = background_matrix(cohort)
    shap_dev = 0.0
    for i, p in enumerate(cohort.patients):
        ea = explain_patient(model, X[i], M[i], B, ExplainerConfig(),
                             stay_length=p.stay_length)
        eb = explain_patient(model, X2[i], M[i], B, ExplainerConfig(),
                             stay_length=p.stay_length)
        shap_dev = max(shap_dev, float(np.abs(ea.W - eb.W).max()),
                       float(np.abs(ea.base - eb.base).max()))

    ok = forward_exact and grad_dev <= 1e-12 and cmi_dev <= 1e-12 and shap_dev <= 1e-12
    report(
        capsys, 3,
        "masked-cell values never influence forward, gradients, scores, attributions",
        ok,
        f"forward bitwise {forward_exact}, grad dev {grad_dev:.1e}, "
        f"cmi dev {cmi_dev:.1e}, shap dev {shap_dev:.1e}",
    )


def test_criterion_04_shapley_exactness(capsys):
    model = make_model(F=2, H=3, seed=40, use_attention=True)
    gen = RngStream(41).generator()
    X = gen.normal(size=(2, 5))
    M = np.ones((2, 5))
    B = gen.normal(size=(2, 5)) * 0.2
    t = 4  # 8 players: 2 features x 4 columns
    cfg = ExplainerConfig(exact_threshold=8)
    res = explain_step(model, X, M, t, B, cfg)
    assert len(res.players) == 8

    from tsxplain.itshap import _evaluate_coalitions

    def value(Z):
        return _evaluate_coalitions(model, X, M, t, B, res.players, "cell", Z, False)

    oracle = permutation_shapley(value, 8)
    oracle_err = float(np.abs(res.weights - oracle).max())
    local_err = abs(res.base + res.weights.sum() - forward(X, M, model)[t - 1])

    def dummy_game(Z):
        return Z[:, 2].astype(float) * 1.5

    phi, _, _ = shapley_values(dummy_game, 5, cfg)
    dummy_err = float(max(np.abs(np.delete(phi, 2)).max(), abs(phi[2] - 1.5)))

    def symmetric_game(Z):
        return (Z[:, 0] | Z[:, 1]).astype(float)

    phi, _, _ = shapley_values(symmetric_game, 4, cfg)
    sym_err = abs(phi[0] - phi[1])

    ok = oracle_err <= 1e-8 and local_err <= 1e-8 and dummy_err <= 1e-8 and sym_err <= 1e-8
    report(
        capsys, 4,
        "exact-mode attributions match the permutation oracle; axioms hold (1e-8)",
        ok,
        f"oracle err {oracle_err:.1e}, local {local_err:.1e}, "
        f"dummy {dummy_err:.1e}, symmetry {sym_err:.1e}",
    )


def test_criterion_05_sampling_consistency(capsys):
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

    exact, _, _ = shapley_values(value, m, ExplainerConfig(exact_threshold=12))
    worst = 0.0
    for seed in range(5):
        cfg = ExplainerConfig(exact_threshold=4, n_samples=2000, seed=seed)
        approx, _, _ = shapley_values(value, m, cfg)
        worst = max(worst, float(np.abs(approx - exact).max()))
    ok = worst <= 0.05
    report(
        capsys, 5,
        "sampled attributions (m=10, 2000 samples, 5 seeds) within 0.05 of exact",
        ok, f"max deviation {worst:.4f}",
    )


def test_criterion_06_information_oracles(capsys):
    coin = entropy([0, 1] * 1000)
    quad = entropy([0, 1, 2, 3] * 500)

    gen = RngStream(60).generator()
    n = 50000
    a = gen.integers(0, 2, n)
    flip1 = gen.random(n) < 0.1
    z = np.where(flip1, 1 - a, a)
    flip2 = gen.random(n) < 0.1
    b = np.where(flip2, 1 - z, z)
    markov = conditional_mutual_information(a, b, z)

    a2 = gen.integers(0, 2, n)
    z2 = gen.integers(0, 2, n)
    xor = conditional_mutual_information(a2, a2 ^ z2, z2)

    a3 = gen.integers(0, 3, 400)
    b3 = gen.integers(0, 2, 400)
    z3 = gen.integers(0, 2, 400)
    four = conditional_mutual_information(a3, b3, z3)
    alt = conditional_entropy(a3, z3) - (
        joint_entropy(a3, np.stack([b3, z3], axis=1)) - joint_entropy(b3, z3)
    )
    identity_err = abs(four - alt)

    ok = (
        coin == 1.0
        and quad == 2.0
        and markov <= 0.02
        and abs(xor - 1.0) <= 0.02
        and identity_err <= 1e-10
    )
    report(
        capsys, 6,
        "entropy/CMI oracles: coin 1 bit, uniform-4 2 bits, Markov, XOR, identity",
        ok,
        f"coin {coin}, quad {quad}, markov {markov:.4f}, "
        f"xor {xor:.4f}, identity err {identity_err:.1e}",
    )


def test_criterion_07_auc_oracle(capsys):
    gen = RngStream(70).generator()
    worst = 0.0
    exact = True
    for _ in range(100):
        n = int(gen.integers(5, 501))
        scores = np.round(gen.random(n), 2)
        labels = gen.integers(0, 2, n)
        expected = pairwise_auc(scores, labels)
        got = roc_auc_step(scores, labels)
        if expected is None:
            exact &= got is None
            continue
        exact &= got == expected
        mono1 = roc_auc_step(scores**3, labels)
        shifted = scores * 0.98 + 0.01
        mono2 = roc_auc_step(np.log(shifted / (1 - shifted)), labels)
        worst = max(worst, abs(mono1 - expected), abs(mono2 - expected))
    ok = exact and worst <= 1e-12
    report(
        capsys, 7,
        "rank AUC equals the O(n^2) pairwise oracle; monotone-transform invariant",
        ok, f"exact match {exact}, max monotone dev {worst:.1e}",
    )


BENCH_TRAIN = dict(
    hidden_size=8, max_epochs=60, patience=8, batch_size=64, cv_folds=3,
    grid_learning_rates=(0.25, 0.5),
)


def mean_auc(model, test_c):
    table = evaluate(model, test_c)
    vals = [v for v in table["roc_auc"] if v is not None]
    return float(np.mean(vals))


def test_criterion_08_end_to_end_benchmark(capsys):
    start = time.perf_counter()
    aucs = {"gru": [], "attention": []}
    for seed in (0, 1, 2):
        cohort = synth_cohort(
            SynthConfig(n_patients=1000, mdr_fraction=0.15,
                        signal_strength=6.0, seed=seed)
        )
        train_c, test_c = split_train_test(cohort, 0.7, RngStream(seed).child(100))
        cfg = TrainConfig(seed=seed, **BENCH_TRAIN)
        for variant, use_att in (("gru", False), ("attention", True)):
            model = train(train_c, cfg, use_attention=use_att)
            aucs[variant].append(mean_auc(model, test_c))

    null_aucs = []
    for seed in (0, 1, 2):
        null_cohort = synth_cohort(
            SynthConfig(n_patients=1000, mdr_fraction=0.15,
                        signal_strength=0.0, seed=seed)
        )
        ntrain, ntest = split_train_test(null_cohort, 0.7, RngStream(seed).child(100))
        null_model = train(
            ntrain, TrainConfig(seed=seed, hidden_size=8, max_epochs=30, patience=8),
            use_attention=False,
        )
        null_aucs.append(mean_auc(null_model, ntest))
    null_auc = float(np.mean(null_aucs))

    elapsed = time.perf_counter() - start
    att = float(np.mean(aucs["attention"]))
    plain = float(np.mean(aucs["gru"]))
    ok = att >= 0.85 and plain >= 0.80 and 0.45 <= null_auc <= 0.55 and elapsed <= 600
    report(
        capsys, 8,
        "benchmark: attention AUC >= 0.85, plain >= 0.80, null in [0.45, 0.55], <= 10 min",
        ok,
        f"attention {att:.3f}, plain {plain:.3f}, null {null_auc:.3f}, {elapsed:.0f} s",
    )


def test_criterion_09_signal_recovery(capsys):
    scfg = SynthConfig(n_patients=1000, mdr_fraction=0.15, signal_strength=6.0,
                       n_previous_culture=2)
    planted = planted_features(scfg)
    steps = [t - 1 for t in planted_steps(scfg)]
    att_ok = shap_ok = cmi_ok = True
    for seed in (0, 1, 2):
        cohort = synth_cohort(
            SynthConfig(n_patients=1000, mdr_fraction=0.15, signal_strength=6.0,
                        n_previous_culture=2, seed=seed)
        )
        schema = cohort.schema
        planted_idx = [schema.index(f) for f in planted]
        null_idx = [i for i in range(schema.F) if i not in planted_idx]
        train_c, test_c = split_train_test(cohort, 0.7, RngStream(seed).child(100))
        model = train(
            train_c,
            TrainConfig(seed=seed, learning_rate=1.0, hidden_size=8,
                        max_epochs=200, patience=30),
            use_attention=True,
        )

        # intrinsic attention, averaged over positive patients' valid cells
        att_W, _ = aggregate_by_class(
            attention_matrix(cohort.X * cohort.M, model.attention), cohort, "positive"
        )
        for t in steps:
            med = np.median(att_W[null_idx, t])
            att_ok &= all(att_W[f, t] > med for f in planted_idx)

        # cell-mode Shapley attributions over explained positive patients
        B = background_matrix(train_c)
        positives = [p for p in test_c.patients if p.is_positive][:25]
        xcfg = ExplainerConfig(n_samples=1024, seed=seed)
        expls = np.array([
            explain_patient(model, p.X, p.M, B, xcfg,
                            stay_length=p.stay_length,
                            steps=[p.stay_length]).W
            for p in positives
        ])
        sub = Cohort(schema, positives, cohort.T)
        shap_W, _ = aggregate_by_class(expls, sub, "positive")
        for t in steps:
            med = np.median(np.abs(shap_W[null_idx, t]))
            shap_ok &= all(abs(shap_W[f, t]) > med for f in planted_idx)

        scores = cmi_feature_scores(cohort, CmiConfig())
        for t in steps:
            ceiling = scores.S[null_idx, t].max()
            cmi_ok &= all(scores.S[f, t] > ceiling for f in planted_idx)

    ok = att_ok and shap_ok and cmi_ok
    report(
        capsys, 9,
        "planted features outrank nulls at active steps (attention, shap, cmi), 3 seeds",
        ok, f"attention {att_ok}, itshap {shap_ok}, cmi {cmi_ok}",
    )


def test_criterion_10_determinism(capsys, tmp_path):
    import json

    from tsxplain import cli

    def run_all(out_dir):
        cfg = {
            "out_dir": str(out_dir),
            "seeds": [0, 1],
            "T": 8,
            "synth": {"n_patients": 60, "mdr_fraction": 0.2,
                      "signal_strength": 6.0, "mean_stay": 5.0},
            "train": {"max_epochs": 3, "hidden_size": 4, "batch_size": 16},
            "itshap": {"max_patients": 3, "n_samples": 256},
        }
        cfg_path = out_dir.parent / f"{out_dir.name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["synth", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert cli.main(["explain", "--config", str(cfg_path), "--method", "cmi"]) == 0
        assert cli.main(
            ["explain", "--config", str(cfg_path), "--method", "attention"]
        ) == 0
        assert cli.main(
            ["explain", "--config", str(cfg_path), "--method", "itshap"]
        ) == 0
        assert cli.main(["report", "--config", str(cfg_path)]) == 0
        return {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }

    first = run_all(tmp_path / "run_a")
    second = run_all(tmp_path / "run_b")
    same_names = set(first) == set(second)
    identical = same_names and all(first[k] == second[k] for k in first)
    report(
        capsys, 10,
        "full pipeline rerun with identical config/seeds is byte-identical",
        identical, f"{len(first)} files compared, identical {identical}",
    )
