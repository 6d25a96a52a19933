import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsxplain import evaluation as eval_mod
from tsxplain.data import SynthConfig, synth_cohort
from tsxplain.errors import DataError
from tsxplain.evaluation import (
    METRICS,
    MetricSeries,
    _average_ranks,
    aggregate_repeats,
    delta_report,
    evaluate,
    load_metric_series,
    roc_auc_step,
    save_delta_report,
    save_metric_series,
    sens_spec_step,
)
from tsxplain.model import (
    ROW_BLOCK,
    TrainConfig,
    TrainedModel,
    init_params,
    load_model,
    save_model,
    schema_fingerprint,
    train,
)
from tsxplain.numerics import RngStream

from conftest import freeze, toy_cohort
from oracles import average_ranks_loop, evaluate_whole_batch


def pairwise_auc(scores, labels):
    """O(n^2) count of concordant pairs with half credit for ties."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


class TestAuc:
    def test_perfect_separation(self):
        assert roc_auc_step([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc_step([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_half(self):
        assert roc_auc_step([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        assert roc_auc_step([0.1, 0.9], [1, 1]) is None
        assert roc_auc_step([0.1, 0.9], [0, 0]) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_is_data_error(self, bad):
        for labels in ([1, 0, 1, 0], [1, 1, 1, 1]):
            with pytest.raises(DataError, match="finite"):
                roc_auc_step([0.2, bad, 0.7, 0.4], labels)

    @given(st.integers(0, 2**32 - 1), st.integers(5, 60))
    @settings(max_examples=40, deadline=None)
    def test_matches_pairwise_oracle(self, seed, n):
        gen = RngStream(seed).generator()
        scores = np.round(gen.random(n), 2)  # rounding forces ties
        labels = gen.integers(0, 2, n)
        expected = pairwise_auc(scores, labels)
        got = roc_auc_step(scores, labels)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) < 1e-12

    def test_large_instance_exact(self):
        gen = RngStream(77).generator()
        scores = np.round(gen.random(500), 3)
        labels = gen.integers(0, 2, 500)
        assert abs(roc_auc_step(scores, labels) - pairwise_auc(scores, labels)) < 1e-12

    def test_monotone_transform_invariance(self):
        gen = RngStream(21).generator()
        scores = gen.random(80)
        labels = gen.integers(0, 2, 80)
        base = roc_auc_step(scores, labels)
        assert abs(roc_auc_step(scores**3, labels) - base) < 1e-12
        logit = np.log(scores / (1 - scores))
        assert abs(roc_auc_step(logit, labels) - base) < 1e-12


class TestAverageRanks:
    def test_hand_case(self):
        x = np.array([0.5, -1.0, 0.5, 2.0, 0.5, -0.0, 0.0])
        assert _average_ranks(x).tolist() == [5.0, 1.0, 5.0, 7.0, 5.0, 2.5, 2.5]

    def test_bit_identical_to_loop_oracle(self):
        gen = RngStream(31).generator()
        alphabet = np.array([0.0, -0.0, 1.0, -2.5, 0.125, 1e-300, np.inf, -np.inf])
        for trial in range(3000):
            n = int(gen.integers(0, 200))
            if trial % 3 == 0:
                x = gen.choice(alphabet, size=n)  # tie-heavy, signed zeros
            elif trial % 3 == 1:
                x = np.round(gen.normal(size=n), 1)
            else:
                x = gen.random(n)  # ties rare
            got, expected = _average_ranks(x), average_ranks_loop(x)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), x


class TestSensSpec:
    def test_perfect_classifier(self):
        sens, spec = sens_spec_step([0.9, 0.9, 0.1, 0.1], [1, 1, 0, 0], 0.5)
        assert sens == 1.0 and spec == 1.0

    def test_threshold_inclusive(self):
        sens, _ = sens_spec_step([0.5], [1], 0.5)
        assert sens == 1.0

    def test_hand_fractions(self):
        scores = [0.9, 0.3, 0.6, 0.2]
        labels = [1, 1, 0, 0]
        sens, spec = sens_spec_step(scores, labels, 0.5)
        assert sens == 0.5 and spec == 0.5

    def test_missing_class_none(self):
        sens, spec = sens_spec_step([0.9, 0.8], [1, 1], 0.5)
        assert sens == 1.0 and spec is None
        sens, spec = sens_spec_step([0.1, 0.2], [0, 0], 0.5)
        assert sens is None and spec == 1.0


class TestEvaluate:
    def trained(self):
        cohort = synth_cohort(SynthConfig(n_patients=80, signal_strength=6.0, seed=4))
        model = train(cohort, TrainConfig(max_epochs=3, seed=0), use_attention=False)
        return model, cohort

    def test_table_shape_and_definedness(self):
        model, cohort = self.trained()
        table = evaluate(model, cohort)
        for m in METRICS:
            assert len(table[m]) == cohort.T

    def test_respects_validity(self):
        # a patient discharged at t leaves every later step's pool; duplicate
        # patients do not change the AUC
        model, cohort = self.trained()
        table = evaluate(model, cohort)
        from tsxplain.data import Cohort
        doubled = Cohort(cohort.schema, cohort.patients + cohort.patients, cohort.T)
        table2 = evaluate(model, doubled)
        for t in range(cohort.T):
            a, b = table["roc_auc"][t], table2["roc_auc"][t]
            if a is None:
                assert b is None
            else:
                assert abs(a - b) < 1e-12

    def test_empty_cohort(self):
        model, _ = self.trained()
        with pytest.raises(DataError):
            evaluate(model, toy_cohort([], F=14))

    def test_cohort_blocks_unwritten(self):
        model, cohort = self.trained()
        want = evaluate(model, cohort)
        assert evaluate(model, freeze(cohort)) == want

    def test_memory_below_one_input_block(self, tmp_path):
        """The cohort's X holds X⊙M and goes to the model one row block at a
        time, so evaluating a GRU checkpoint on 4,000 patients allocates
        less than one row block of inputs, as much again for the forward's
        activations, and the (n, T) scores and labels: nothing else grows
        with the patients."""
        cohort = synth_cohort(SynthConfig(n_patients=4000, seed=3))
        gru, _ = init_params(cohort.F, 8, RngStream(0), use_attention=False)
        save_model(TrainedModel(gru=gru, attention=None,
                                schema_fingerprint=schema_fingerprint(cohort.schema)),
                   tmp_path / "ckpt.txt")
        model = load_model(tmp_path / "ckpt.txt")
        tracemalloc.start()
        try:
            evaluate(model, cohort)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_block = ROW_BLOCK * cohort.F * cohort.T * 8
        assert peak < 2 * one_block + 2 * cohort.y.nbytes < cohort.X.nbytes, peak


class TestBlockEvaluation:
    """``evaluate`` forwards its rows one row block at a time; its table and
    its scores must have the bits of one forward over a copy of the rows."""

    @pytest.fixture(scope="class")
    def cohort(self):
        return synth_cohort(SynthConfig(n_patients=2100, signal_strength=6.0, seed=8))

    @pytest.mark.parametrize("use_attention", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1024, 1025, 2049])
    def test_matches_whole_batch_oracle(self, cohort, n, use_attention, monkeypatch):
        gen = RngStream(n).generator()
        gru, att = init_params(cohort.F, 8, RngStream(9), use_attention)
        if att is not None:  # a zero attention map is uniform; make it informative
            att.W, att.b = gen.normal(scale=0.4, size=att.W.shape), gen.normal(size=att.b.shape)
        model = TrainedModel(gru=gru, attention=att, threshold=0.2,
                             schema_fingerprint=schema_fingerprint(cohort.schema))
        rows = np.sort(gen.choice(len(cohort.ids), n, replace=False))
        blocks, forward = [], eval_mod.forward_prepared
        monkeypatch.setattr(eval_mod, "forward_prepared",
                            lambda *args: blocks.append(forward(*args)) or blocks[-1])
        table = evaluate(model, cohort, rows=rows)
        want_table, want_scores = evaluate_whole_batch(model, cohort.subset(rows))
        assert np.concatenate(blocks).tobytes() == want_scores.tobytes()
        assert len(blocks) == -(-n // ROW_BLOCK)
        assert table == want_table

    @pytest.mark.parametrize("use_attention", [False, True])
    @pytest.mark.parametrize("n", [1, 513, 1025, 2049])
    def test_whole_cohort_matches_whole_batch_oracle(self, cohort, n, use_attention,
                                                     monkeypatch):
        """Without ``rows`` each block is a slice of the cohort's X, a view,
        with the bits of the same whole-batch forward."""
        gru, att = init_params(cohort.F, 8, RngStream(9), use_attention)
        model = TrainedModel(gru=gru, attention=att, threshold=0.2,
                             schema_fingerprint=schema_fingerprint(cohort.schema))
        part = cohort.subset(np.sort(RngStream(n).generator().choice(len(cohort.ids), n,
                                                                     replace=False)))
        blocks, forward = [], eval_mod.forward_prepared
        monkeypatch.setattr(eval_mod, "forward_prepared",
                            lambda X, *args: blocks.append((X.base is part.X, forward(X, *args)))
                            or blocks[-1][1])
        table = evaluate(model, part)
        want_table, want_scores = evaluate_whole_batch(model, part)
        assert all(view for view, _ in blocks)
        assert np.concatenate([s for _, s in blocks]).tobytes() == want_scores.tobytes()
        assert table == want_table

    def test_whole_cohort_gathers_no_block(self, cohort):
        """Over every patient of a 2,000-patient cohort a GRU evaluation
        forwards views: its traced peak is below that of the same
        evaluation given every row as indices, which gathers each block, by
        most of one gathered block."""
        gru, _ = init_params(cohort.F, 8, RngStream(9), use_attention=False)
        model = TrainedModel(gru=gru, attention=None, threshold=0.2,
                             schema_fingerprint=schema_fingerprint(cohort.schema))
        part = cohort.subset(np.arange(2000))
        peaks = []
        for rows in (None, np.arange(2000)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                evaluate(model, part, rows=rows)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[0] + 0.8 * part.X[:ROW_BLOCK].nbytes < peaks[1], peaks


def table(values):
    """StepTable with the same per-step values for all metrics."""
    return {m: list(values) for m in METRICS}


class TestAggregate:
    def test_identical_runs_zero_std(self):
        runs = [table([0.7, 0.8, None]), table([0.7, 0.8, None])]
        agg = aggregate_repeats(runs)
        s = agg["roc_auc"]
        assert np.array_equal(s.defined, [True, True, False])
        assert abs(s.mean[0] - 0.7) < 1e-12
        assert s.std[:2].max() == 0.0

    def test_hand_mean_std(self):
        runs = [table([0.7]), table([0.8])]
        s = aggregate_repeats(runs)["sensitivity"]
        assert abs(s.mean[0] - 0.75) < 1e-12
        assert abs(s.std[0] - np.std([0.7, 0.8], ddof=1)) < 1e-12

    def test_single_defining_run_skipped(self):
        runs = [table([0.7, None]), table([None, None]), table([0.6, None])]
        s = aggregate_repeats(runs)["roc_auc"]
        assert s.defined[0] and not s.defined[1]
        assert s.n_defined[0] == 2

    def test_too_few_runs(self):
        with pytest.raises(DataError):
            aggregate_repeats([table([0.7])])

    def test_nothing_defined(self):
        with pytest.raises(DataError):
            aggregate_repeats([table([None]), table([None])])


class TestDelta:
    def series(self, means, stds=None, defined=None):
        T = len(means)
        stds = stds or [0.0] * T
        defined = defined if defined is not None else [True] * T
        return {
            m: MetricSeries(
                mean=np.array(means, dtype=float), std=np.array(stds, dtype=float),
                defined=np.array(defined), n_defined=np.full(T, 3),
            )
            for m in METRICS
        }

    def test_self_delta_zero(self):
        a = self.series([0.7, 0.8])
        rep = delta_report(a, a)
        for m in METRICS:
            assert not rep.mean_delta[m].any()

    def test_antisymmetric(self):
        a = self.series([0.7, 0.8])
        b = self.series([0.6, 0.9])
        ab = delta_report(a, b)
        ba = delta_report(b, a)
        for m in METRICS:
            assert np.array_equal(ab.mean_delta[m], -ba.mean_delta[m])

    def test_hand_values_and_sign(self):
        rep = delta_report(self.series([0.6]), self.series([0.9]))
        assert abs(rep.mean_delta["roc_auc"][0] - (-0.3)) < 1e-12
        assert "second model outperforms" in rep.sign_convention

    def test_undefined_zeroed(self):
        a = self.series([0.7, 0.8], defined=[True, False])
        b = self.series([0.1, 0.1])
        rep = delta_report(a, b)
        for m in METRICS:
            assert rep.mean_delta[m][1] == 0.0
            assert not rep.defined[m][1]


class TestIo:
    def test_metric_series_round_trip(self, tmp_path):
        runs = [table([0.7, None, 0.5]), table([0.8, None, 0.4])]
        series = aggregate_repeats(runs)
        path = tmp_path / "metrics.csv"
        save_metric_series(series, path)
        back = load_metric_series(path)
        for m in METRICS:
            assert np.array_equal(back[m].mean, series[m].mean)
            assert np.array_equal(back[m].std, series[m].std)
            assert np.array_equal(back[m].defined, series[m].defined)
            assert np.array_equal(back[m].n_defined, series[m].n_defined)

    def test_delta_report_file(self, tmp_path):
        a = aggregate_repeats([table([0.7]), table([0.8])])
        b = aggregate_repeats([table([0.5]), table([0.6])])
        rep = delta_report(a, b)
        path = tmp_path / "delta.csv"
        save_delta_report(rep, path)
        text = path.read_text()
        assert text.startswith("# sign convention")
        assert "roc_auc,1," in text
