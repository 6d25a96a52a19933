import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsxplain import cmi as cmi_mod
from tsxplain.cmi import (
    MIN_VALID_SAMPLES,
    CmiConfig,
    CmiScores,
    _codes,
    cmi_feature_scores,
    conditional_entropy,
    conditional_mutual_information,
    discretize,
    entropy,
    joint_entropy,
    mutual_information,
    select_features,
)
from tsxplain.data import SCOPES, Cohort, PatientRecord, SynthConfig, build_labels, synth_cohort
from tsxplain.errors import ConfigError, DataError
from tsxplain.numerics import RngStream

from conftest import small_schema, toy_cohort
from oracles import cmi_scores_by_cell, entropy_unique_rows


class TestEntropy:
    def test_fair_coin(self):
        assert abs(entropy([0, 1] * 500) - 1.0) < 1e-12

    def test_uniform_four(self):
        assert abs(entropy([0, 1, 2, 3] * 250) - 2.0) < 1e-12

    def test_constant_zero(self):
        assert entropy([7] * 100) == 0.0

    def test_biased_coin_closed_form(self):
        samples = [0] * 3 + [1] * 1
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert abs(entropy(samples) - expected) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            entropy([])

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, xs):
        h = entropy(xs)
        assert -1e-12 <= h <= np.log2(len(set(xs))) + 1e-9


class TestJointAndConditional:
    def test_independent_joint_adds(self):
        gen = RngStream(1).generator()
        a = gen.integers(0, 2, 4000)
        b = gen.integers(0, 4, 4000)
        assert abs(joint_entropy(a, b) - entropy(a) - entropy(b)) < 0.02

    def test_copy_conditional_zero(self):
        gen = RngStream(2).generator()
        a = gen.integers(0, 3, 500)
        assert abs(conditional_entropy(a, a)) < 1e-12

    def test_chain_rule(self):
        gen = RngStream(3).generator()
        a = gen.integers(0, 3, 300)
        b = gen.integers(0, 2, 300)
        assert abs(joint_entropy(a, b) - (entropy(b) + conditional_entropy(a, b))) < 1e-12

    def test_mi_symmetry(self):
        gen = RngStream(4).generator()
        a = gen.integers(0, 3, 300)
        b = (a + gen.integers(0, 2, 300)) % 3
        assert abs(mutual_information(a, b) - mutual_information(b, a)) < 1e-12

    def test_mi_independent_near_zero(self):
        gen = RngStream(5).generator()
        a = gen.integers(0, 2, 50000)
        b = gen.integers(0, 2, 50000)
        assert mutual_information(a, b) < 0.02

    def test_mi_copy_equals_entropy(self):
        gen = RngStream(6).generator()
        a = gen.integers(0, 4, 1000)
        assert abs(mutual_information(a, a) - entropy(a)) < 1e-12


class TestCmi:
    def test_xor_structure(self):
        # a, z fair independent bits, b = a xor z: I(a;b)=0, I(a;b|z)=1
        gen = RngStream(7).generator()
        n = 50000
        a = gen.integers(0, 2, n)
        z = gen.integers(0, 2, n)
        b = a ^ z
        assert mutual_information(a, b) < 0.02
        assert abs(conditional_mutual_information(a, b, z) - 1.0) < 0.02

    def test_markov_chain_screens(self):
        # a -> z -> b: conditioning on z kills the dependence
        gen = RngStream(8).generator()
        n = 50000
        a = gen.integers(0, 2, n)
        flip1 = gen.random(n) < 0.1
        z = np.where(flip1, 1 - a, a)
        flip2 = gen.random(n) < 0.1
        b = np.where(flip2, 1 - z, z)
        assert mutual_information(a, b) > 0.3
        assert conditional_mutual_information(a, b, z) < 0.02

    def test_four_entropy_identity(self):
        gen = RngStream(9).generator()
        a = gen.integers(0, 3, 400)
        b = gen.integers(0, 2, 400)
        z = gen.integers(0, 2, 400)
        lhs = conditional_mutual_information(a, b, z)
        rhs = conditional_entropy(a, z) - (
            joint_entropy(a, np.stack([b, z], axis=1))
            - joint_entropy(b, z)
        )
        assert abs(lhs - rhs) < 1e-10

    def test_multicolumn_conditioner(self):
        gen = RngStream(10).generator()
        z = gen.integers(0, 2, (2000, 2))
        a = z[:, 0] ^ z[:, 1]
        b = a.copy()
        assert abs(conditional_mutual_information(a, b, z)) < 1e-12

    def test_nonnegative(self):
        gen = RngStream(11).generator()
        for _ in range(20):
            a = gen.integers(0, 3, 100)
            b = gen.integers(0, 3, 100)
            z = gen.integers(0, 2, 100)
            assert conditional_mutual_information(a, b, z) > -1e-12


class TestDiscretize:
    def test_equal_frequency_balanced(self):
        gen = RngStream(12).generator()
        vals = gen.normal(size=8000)
        codes = discretize(vals, 8, "equal_frequency")
        counts = np.bincount(codes)
        assert len(counts) == 8
        assert counts.max() - counts.min() <= counts.mean() * 0.05

    def test_equal_width_edges(self):
        codes = discretize(np.array([0.0, 0.24, 0.26, 0.51, 0.99]), 4, "equal_width")
        assert list(codes) == [0, 0, 1, 2, 3]

    def test_constant_input_single_bin(self):
        codes = discretize(np.full(50, 3.3), 8, "equal_frequency")
        assert len(set(codes)) == 1

    def test_monotone_invariance_of_mi(self):
        gen = RngStream(13).generator()
        vals = gen.normal(size=2000)
        labels = (vals > 0).astype(int)
        c1 = discretize(vals, 8, "equal_frequency")
        c2 = discretize(np.exp(vals), 8, "equal_frequency")
        a = mutual_information(c1, labels)
        b = mutual_information(c2, labels)
        assert abs(a - b) < 1e-9


def signal_cohort(n=120, T=6, seed=0):
    """f0 copies the step label, f1/f2 are noise."""
    schema = small_schema(3)
    gen = RngStream(seed).generator()
    patients = []
    for i in range(n):
        stay = T
        positive = i % 2 == 0
        y = build_labels(1 if positive else None, stay, T)
        X = np.zeros((3, T))
        M = np.ones((3, T))
        X[0] = y
        X[1] = np.round(gen.normal(size=T), 3)
        X[2] = np.round(gen.normal(size=T), 3)
        patients.append(PatientRecord(id=f"p{i}", X=X, M=M, y=y, stay_length=stay))
    return Cohort(schema=schema, patients=patients, T=T)


class TestFeatureScores:
    def test_label_copy_scores_label_entropy(self):
        c = signal_cohort()
        scores = cmi_feature_scores(c, CmiConfig())
        # balanced labels at every step -> H(y) = 1 bit, f0 copies y
        assert np.abs(scores.S[0] - 1.0).max() < 1e-9

    def test_noise_scores_small(self):
        c = signal_cohort(n=400)
        scores = cmi_feature_scores(c, CmiConfig())
        assert scores.S[1].max() < 0.05
        assert scores.S[2].max() < 0.05

    def test_sparse_cells_flagged_absent(self):
        c = toy_cohort([(None, 3)] * 4, F=3, T=6)
        scores = cmi_feature_scores(c, CmiConfig())
        assert scores.absent().all()
        assert not scores.S.any()

    def test_masked_samples_excluded(self):
        c = signal_cohort(n=60)
        for p in c.patients:
            p.M[0, :] = 0.0
        scores = cmi_feature_scores(c, CmiConfig())
        assert scores.valid_counts[0].max() == 0
        assert not scores.S[0].any()

    def test_patient_order_invariance(self):
        c = signal_cohort(n=60)
        scores_a = cmi_feature_scores(c, CmiConfig())
        shuffled = Cohort(c.schema, list(reversed(c.patients)), c.T)
        scores_b = cmi_feature_scores(shuffled, CmiConfig())
        assert np.array_equal(scores_a.S, scores_b.S)

    def test_greedy_conditions_out_redundancy(self):
        # f1 duplicates f0 (the label copy); with greedy conditioning the
        # second copy scores ~0, without it both score 1 bit
        c = signal_cohort(n=200)
        for p in c.patients:
            p.X[1] = p.X[0]
        plain = cmi_feature_scores(c, CmiConfig(conditioning="none"))
        assert abs(plain.S[1, 0] - 1.0) < 1e-9
        greedy = cmi_feature_scores(c, CmiConfig(conditioning="greedy_selected"))
        first, second = sorted([greedy.S[0, 0], greedy.S[1, 0]], reverse=True)
        assert abs(first - 1.0) < 1e-9
        assert second < 0.02

    def test_empty_cohort(self):
        with pytest.raises(DataError):
            cmi_feature_scores(toy_cohort([]), CmiConfig())


class TestSelectFeatures:
    def make_scores(self):
        S = np.array([[0.9, 0.1], [0.5, 0.6], [0.2, 0.8]])
        counts = np.full((3, 2), 100, dtype=np.int64)
        return CmiScores(S=S, valid_counts=counts)

    def test_top_k(self):
        sel = select_features(self.make_scores(), CmiConfig(top_k=2))
        assert np.array_equal(sel, [[1, 0], [1, 1], [0, 1]])

    def test_threshold(self):
        sel = select_features(self.make_scores(), CmiConfig(threshold=0.55))
        assert np.array_equal(sel, [[1, 0], [0, 1], [0, 1]])

    def test_absent_never_selected(self):
        scores = self.make_scores()
        scores.valid_counts[0, 0] = 3
        sel = select_features(scores, CmiConfig(threshold=0.0))
        assert sel[0, 0] == 0.0
        assert sel[1:].all()

    def test_exactly_one_mode_required(self):
        with pytest.raises(ConfigError):
            select_features(self.make_scores(), CmiConfig())
        with pytest.raises(ConfigError):
            select_features(self.make_scores(), CmiConfig(top_k=1, threshold=0.5))

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            CmiConfig(n_bins=1)
        with pytest.raises(ConfigError):
            CmiConfig(binning="kmeans")

    @pytest.mark.parametrize("cfg", [
        {"n_bins": 1}, {"n_bins": 2.5}, {"n_bins": True}, {"n_bins": "8"},
        {"max_conditioners": -1}, {"max_conditioners": 1.5}, {"max_conditioners": None},
        {"top_k": 0}, {"top_k": -2}, {"top_k": 2.5}, {"top_k": True},
        {"threshold": "x"}, {"threshold": float("nan")}, {"threshold": float("inf")},
        {"threshold": False}, {"top_k": 1, "threshold": 0.5},
    ])
    def test_rejected_fields(self, cfg):
        with pytest.raises(ConfigError):
            CmiConfig(**cfg)

    @pytest.mark.parametrize("cfg", [
        {"n_bins": 2}, {"max_conditioners": 0}, {"top_k": 1}, {"top_k": None},
        {"threshold": 0}, {"threshold": -0.5}, {"threshold": None},
    ])
    def test_accepted_fields(self, cfg):
        CmiConfig(**cfg)


# column values for the joint coder: small ints, and floats that include
# both zeros (equal under ``np.unique``) and far-apart magnitudes
INT_COLUMN = st.integers(-3, 3)
FLOAT_COLUMN = st.sampled_from([-0.0, 0.0, 1.5, -2.25, 3.0, 1e300, -1e-300])


class TestJointCoder:
    """``_codes`` and ``entropy`` against ``np.unique(axis=0)`` over the rows."""

    @staticmethod
    def check(columns):
        rows = np.column_stack(columns)
        _, expected = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(_codes(*columns), expected.ravel())
        assert np.array_equal(_codes(rows), expected.ravel())
        assert entropy(*columns) == entropy_unique_rows(rows)
        assert entropy(rows) == entropy_unique_rows(rows)

    @given(st.integers(1, 40).flatmap(lambda n: st.lists(
        st.one_of(st.lists(INT_COLUMN, min_size=n, max_size=n),
                  st.lists(FLOAT_COLUMN, min_size=n, max_size=n)),
        min_size=1, max_size=4)))
    @settings(max_examples=150, deadline=None)
    def test_small_columns(self, columns):
        self.check([np.array(c) for c in columns])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_columns(self, seed):
        gen = RngStream(seed).generator()
        n = 500
        columns = [
            gen.integers(0, 5, n),
            np.round(gen.normal(size=n), 1),
            np.where(gen.random(n) < 0.5, -0.0, 0.0),
            gen.integers(0, 2, n).astype(float),
        ][: 1 + seed]
        self.check(columns)
        self.check([columns[0]])

    def test_mixed_1d_and_2d_arguments(self):
        gen = RngStream(20).generator()
        a = gen.integers(0, 3, 200)
        z = gen.integers(0, 2, (200, 2)).astype(float)
        rows = np.column_stack([a, z])
        assert entropy(a, z) == entropy_unique_rows(rows)
        assert conditional_mutual_information(a, a % 2, z) == (
            entropy_unique_rows(np.column_stack([a, z]))
            + entropy_unique_rows(np.column_stack([a % 2, z]))
            - entropy_unique_rows(np.column_stack([a, a % 2, z]))
            - entropy_unique_rows(z)
        )

    @pytest.mark.parametrize("columns", [
        (), ([],), ([1, 2], []), ([1, 2], [1, 2, 3]), (np.zeros((2, 2, 2)),),
    ])
    def test_malformed_samples(self, columns):
        with pytest.raises(DataError):
            _codes(*columns)


# non-negative integer columns, ranked by a presence table when their values
# stay below max(4n, 2**16) and by np.unique above it
NONNEG_COLUMN = st.one_of(st.integers(0, 4), st.integers(2**16 - 2, 2**16 + 1))


class TestIntegerCoder:
    """The sort-free ranks of non-negative integers against ``np.unique``."""

    check = staticmethod(TestJointCoder.check)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64, np.uint64, np.bool_])
    def test_dtypes(self, dtype):
        gen = RngStream(21).generator()
        columns = [gen.integers(0, 2, 300).astype(dtype),
                   gen.integers(0, 2 if dtype == np.bool_ else 200, 300).astype(dtype)]
        self.check(columns)
        self.check(columns[::-1])
        self.check([columns[1]])

    def test_small_codes_need_no_sort(self, monkeypatch):
        gen = RngStream(22).generator()
        columns = [gen.integers(0, 9, 400), gen.integers(0, 3, (400, 2))]
        expected = _codes(*columns)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called on small integer codes")

        monkeypatch.setattr(np, "unique", no_sort)
        got = _codes(*columns)
        monkeypatch.undo()
        assert np.array_equal(got, expected)
        _, rows = np.unique(np.column_stack(columns), axis=0, return_inverse=True)
        assert np.array_equal(got, rows.ravel())

    @pytest.mark.parametrize("n", [50, 20000])  # bound 2**16, then 4n
    def test_values_at_the_bound(self, n):
        bound = max(4 * n, 2**16)
        gen = RngStream(n).generator()
        for top in (bound - 1, bound):  # the last value ranked without a sort, the first with
            column = gen.integers(0, 4, n)
            column[::7] = top
            self.check([column])
            self.check([gen.integers(0, 3, n), column])

    def test_fold_key_over_the_bound(self):
        n = 300
        gen = RngStream(23).generator()
        # n levels folded with n more exceed the bound; the last column is back below it
        columns = [gen.permutation(n), gen.permutation(n), gen.integers(0, 3, n)]
        assert (n - 1) * n + (n - 1) >= max(4 * n, 2**16)
        self.check(columns)

    @given(st.integers(1, 40).flatmap(lambda n: st.lists(
        st.one_of(st.lists(NONNEG_COLUMN, min_size=n, max_size=n),
                  st.lists(INT_COLUMN, min_size=n, max_size=n),
                  st.lists(FLOAT_COLUMN, min_size=n, max_size=n)),
        min_size=1, max_size=4)))
    @settings(max_examples=150, deadline=None)
    def test_mixed_columns(self, columns):
        self.check([np.array(c) for c in columns])


class TestEntropyCalls:
    """Each scored cell costs 3 entropies unconditioned and 4 conditioned, and
    the greedy pass stops at the round whose conditioning set is full."""

    @pytest.mark.parametrize("conditioning,max_conditioners", [
        ("none", 2), ("greedy_selected", 0), ("greedy_selected", 1),
        ("greedy_selected", 2), ("greedy_selected", 3),
    ])
    def test_count(self, monkeypatch, conditioning, max_conditioners):
        T, F = 3, 5
        c = toy_cohort([(None, T)] * 20 + [(1, T)] * 20, F=F, T=T)  # every cell seen
        calls = []
        real = cmi_mod.entropy

        def counted(*columns):
            calls.append(len(columns))
            return real(*columns)

        monkeypatch.setattr(cmi_mod, "entropy", counted)
        cfg = CmiConfig(conditioning=conditioning, max_conditioners=max_conditioners)
        scores = cmi_feature_scores(c, cfg)
        s = F
        mc = max_conditioners if conditioning == "greedy_selected" else 0
        assert (scores.valid_counts == 40).all()
        assert len(calls) == T * (3 * s + 4 * sum(s - k for k in range(1, min(mc, s - 1) + 1)))


def masked_cohort(n: int, missing_rate: float, seed: int) -> Cohort:
    return synth_cohort(SynthConfig(
        n_patients=n, T=5, missing_rate=missing_rate, mean_stay=4.0, seed=seed,
    ))


# sparse cohorts (cells with fewer than 10 samples, greedy fallbacks and
# conditioned scores side by side) and a dense one, as (n, missing_rate, seed)
SPARSE_COHORTS = [(40, 0.5, 1), (45, 0.45, 3)]
ORACLE_COHORTS = SPARSE_COHORTS + [(120, 0.3, 2)]


class TestScoresOracle:
    """``cmi_feature_scores`` against the per-patient cell loop with
    index-list intersections and ``np.unique(axis=0)`` coding."""

    @pytest.mark.parametrize("n,missing_rate,seed", SPARSE_COHORTS)
    def test_cohorts_cover_the_edge_cases(self, n, missing_rate, seed):
        c = masked_cohort(n, missing_rate, seed)
        seen = np.stack([p.M for p in c.patients]).astype(np.int64)  # (n, F, T)
        counts = seen.sum(axis=0)
        assert ((counts > 0) & (counts < MIN_VALID_SAMPLES)).any()
        scored = counts >= MIN_VALID_SAMPLES
        both = np.einsum("nft,ngt->tfg", seen, seen)  # patients seen for f and g
        pair = scored.T[:, :, None] & scored.T[:, None, :]
        np.einsum("tff->tf", pair)[:] = False
        assert (pair & (both < MIN_VALID_SAMPLES)).any()  # a fallback
        assert (pair & (both >= MIN_VALID_SAMPLES)).any()  # a conditioned score

    @pytest.mark.parametrize("n,missing_rate,seed", ORACLE_COHORTS)
    @pytest.mark.parametrize("conditioning", ["none", "greedy_selected"])
    @pytest.mark.parametrize("binning", ["equal_frequency", "equal_width"])
    @pytest.mark.parametrize("max_conditioners", [0, 1, 2, 4])
    def test_bit_identical(self, n, missing_rate, seed, conditioning, binning,
                           max_conditioners):
        c = masked_cohort(n, missing_rate, seed)
        cfg = CmiConfig(n_bins=3 + max_conditioners, binning=binning,
                        conditioning=conditioning, max_conditioners=max_conditioners)
        scores = cmi_feature_scores(c, cfg)
        S, counts = cmi_scores_by_cell(c, cfg)
        assert np.array_equal(scores.S, S)
        assert np.array_equal(scores.valid_counts, counts)
        assert scores.S.tobytes() == S.tobytes()  # signed zeros too

    @pytest.mark.parametrize("n,missing_rate,seed", ORACLE_COHORTS)
    @pytest.mark.parametrize("conditioning", ["none", "greedy_selected"])
    @pytest.mark.parametrize("scope", SCOPES)
    def test_scope_matches_subset(self, n, missing_rate, seed, conditioning, scope):
        c = masked_cohort(n, missing_rate, seed)
        cfg = CmiConfig(conditioning=conditioning)
        scores = cmi_feature_scores(c, cfg, scope)
        S, counts = cmi_scores_by_cell(c.subset(c.scope_indices(scope)), cfg)
        assert scores.S.tobytes() == S.tobytes()
        assert np.array_equal(scores.valid_counts, counts)
