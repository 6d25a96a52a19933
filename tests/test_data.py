import csv
import functools
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsxplain import data as data_mod
from tsxplain.data import (
    READ_BLOCK,
    WRITE_BLOCK,
    Cohort,
    FeatureDescriptor,
    FeatureSchema,
    SynthConfig,
    build_labels,
    compute_class_weights,
    kfold,
    load_cohort,
    load_schema,
    planted_features,
    read_long_csv,
    save_cohort,
    save_schema,
    split_train_test,
    synth_cohort,
    synth_schema,
    write_long_csv,
)
from tsxplain.errors import ConfigError, DataError, SchemaError
from tsxplain.numerics import RngStream

from conftest import small_schema, toy_cohort
from oracles import (
    float_mask_product,
    kfold_cohorts,
    load_cohort_by_cell,
    load_cohort_by_column,
    load_records_by_cell,
    save_cohort_by_patient,
    synth_cohort_by_patient,
    synth_records_by_patient,
    write_long_csv_by_row,
)


class TestSchema:
    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            FeatureDescriptor("x", "categorical", "care")

    def test_unknown_group(self):
        with pytest.raises(SchemaError):
            FeatureDescriptor("x", "binary", "nonsense")

    def test_duplicate_names(self):
        f = FeatureDescriptor("x", "binary", "care")
        with pytest.raises(SchemaError):
            FeatureSchema((f, f))

    def test_group_indices(self):
        schema = small_schema(5)
        assert schema.group_indices("previous_culture") == [0, 4]
        assert schema.index("f2") == 2

    def test_round_trip(self, tmp_path):
        schema = synth_schema(SynthConfig(n_patients=1))
        path = tmp_path / "schema.txt"
        save_schema(schema, path)
        assert load_schema(path) == schema
        # load_schema strips each line, so a name it would read back
        # differently is rejected when the descriptor is made
        for name in ("", " x", "x ", "\tx", "a\nb", "a\rb", "a\u2028b", "\n"):
            with pytest.raises(SchemaError, match="feature name"):
                FeatureDescriptor(name, "binary", "care")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("name pc_0\nkind: binary\ngroup: care\n")
        with pytest.raises(SchemaError):
            load_schema(path)

    @pytest.mark.parametrize("block, error", [
        ("name: pc_0\nkind: binary\nkind: numeric\ngroup: care\n", "duplicate schema key 'kind'"),
        ("name: pc_0\nname: pc_1\nkind: binary\ngroup: care\n", "duplicate schema key 'name'"),
        ("name: pc_0\nkind: binary\ngroup: care\ncolour: red\n", "unknown schema key 'colour'"),
        ("name: pc_0\nKind: binary\ngroup: care\n", "unknown schema key 'Kind'"),
    ], ids=["duplicate kind", "duplicate name", "unknown key", "capitalised key"])
    def test_duplicate_or_unknown_key(self, tmp_path, block, error):
        path = tmp_path / "schema.txt"
        path.write_text(block)
        with pytest.raises(SchemaError, match=error):
            load_schema(path)


class TestBuildLabels:
    def test_never_positive(self):
        assert np.array_equal(build_labels(None, 4, 6), np.zeros(6))

    def test_onset_mid_stay(self):
        y = build_labels(3, 5, 7)
        assert np.array_equal(y, [0, 0, 1, 1, 1, 0, 0])

    def test_onset_day_one(self):
        y = build_labels(1, 2, 4)
        assert np.array_equal(y, [1, 1, 0, 0])

    def test_culture_beyond_stay(self):
        with pytest.raises(DataError):
            build_labels(5, 4, 6)

    def test_bad_stay(self):
        with pytest.raises(DataError):
            build_labels(None, 0, 6)


def _set(field, index, value):
    """An edit of a patient record that writes ``value`` at ``index`` of
    ``field``, or replaces the field when ``index`` is None."""
    def edit(p):
        if index is None:
            setattr(p, field, value)
        else:
            getattr(p, field)[index] = value
    return edit


# Each rule that cohort validation enforces, as an edit that breaks it in a
# record of toy_cohort([(None, 3), (None, 4), (None, 5)]) (F = 3, T = 6) and
# the text of the DataError it raises.
SHAPES = "X/M must be 3x6 and y of length 6"
RULES = {
    "X_shape": (_set("X", None, np.zeros((3, 7))), SHAPES),
    "M_shape": (_set("M", None, np.zeros((2, 6))), SHAPES),
    "y_shape": (_set("y", None, np.zeros(5)), SHAPES),
    "stay_below_1": (_set("stay_length", None, 0), r"stay_length out of 1\.\.6"),
    "stay_above_T": (_set("stay_length", None, 7), r"stay_length out of 1\.\.6"),
    "mask_not_binary": (_set("M", (0, 0), 0.5), "mask must be binary"),
    "nan_mask": (_set("M", (2, 1), np.nan), "mask must be binary"),
    "mask_beyond_stay": (_set("M", (1, 5), 1.0), "mask set beyond stay"),
    "label_not_binary": (_set("y", 1, 0.5), "labels must be 0 or 1"),
    "label_beyond_stay": (_set("y", 5, 1.0), "label set beyond stay"),
    "decreasing_labels": (_set("y", 0, 1.0), "labels must be non-decreasing"),
    "nan_value": (_set("X", (1, 0), np.nan), "values must be finite"),
    "inf_in_a_masked_cell": (_set("X", (0, 5), -np.inf), "values must be finite"),
}


def float_records(specs):
    """Records of ``toy_cohort(specs)`` that own float64 copies of X and M,
    as records built outside a cohort do; a cohort's own records are views
    into its bool mask block."""
    return [replace(p, X=p.X.copy(), M=p.M.astype(np.float64))
            for p in toy_cohort(specs).patients]


class TestValidation:
    @pytest.mark.parametrize("broken,named", [((1,), "p1"), ((0, 2), "p0")],
                             ids=["p1", "p0_p2"])
    @pytest.mark.parametrize("rule", list(RULES))
    def test_rule_names_first_offender(self, rule, broken, named):
        edit, message = RULES[rule]
        records = float_records([(None, 3), (None, 4), (None, 5)])
        for i in broken:
            edit(records[i])
        with pytest.raises(DataError, match=f"^patient {named}: {message}"):
            Cohort(small_schema(), records, T=6)


class TestScope:
    def test_three_scopes(self):
        c = toy_cohort([(None, 3), (2, 4), (None, 5), (1, 6)])
        assert c.scope_indices("all") == [0, 1, 2, 3]
        assert c.scope_indices("positive") == [1, 3]
        assert c.scope_indices("negative") == [0, 2]

    def test_unknown_scope(self):
        with pytest.raises(ConfigError, match="everyone"):
            toy_cohort([(None, 3)]).scope_indices("everyone")

    def test_empty_scope(self):
        c = toy_cohort([(None, 3), (None, 4)])
        with pytest.raises(DataError, match="positive"):
            c.scope_indices("positive")
        with pytest.raises(DataError, match="all"):
            toy_cohort([]).scope_indices("all")


class TestSubset:
    def test_records_schema_and_horizon(self):
        c = toy_cohort([(None, 3), (2, 4), (None, 5), (1, 6)], T=7)
        sub = c.subset([3, 0, 2])
        assert sub.ids.tolist() == ["p3", "p0", "p2"]
        for field in ("X", "M", "y", "stay", "ids"):
            assert np.array_equal(getattr(sub, field), getattr(c, field)[[3, 0, 2]])
        assert [p.id for p in sub.patients] == ["p3", "p0", "p2"]
        assert sub.schema is c.schema
        assert sub.T == c.T == 7

    def test_patient_list_independent_of_parent(self):
        c = toy_cohort([(None, 3), (2, 4), (None, 5)])
        before = c.X.copy()
        sub = c.subset(range(2))
        sub.X[0, 0, 0] = 7.0
        sub.patients[1].X[1, 1] = 8.0  # a record is a view into its cohort
        assert sub.X[1, 1, 1] == 8.0
        assert np.array_equal(c.X, before)

    def test_stacked_shares_memory_with_the_blocks(self):
        c = toy_cohort([(None, 3), (2, 4), (None, 5)])
        for cohort in (c, c.subset([2, 0])):
            X, M, y, valid = cohort.stacked()
            assert X is cohort.X and M is cohort.M and y is cohort.y
            assert np.shares_memory(cohort.patients[0].X, X)
            assert np.array_equal(valid, [np.arange(cohort.T) < p.stay_length
                                          for p in cohort.patients])

    def test_empty_cohort_blocks(self):
        X, M, y, valid = Cohort(small_schema(), [], T=6).stacked()
        assert X.shape == M.shape == (0, 3, 6) and y.shape == valid.shape == (0, 6)


class TestClassWeights:
    def test_majority_share(self):
        # at t=0: 9 negatives, 1 positive -> beta = 0.9
        specs = [(None, 3)] * 9 + [(1, 3)]
        cw = compute_class_weights(toy_cohort(specs))
        assert abs(cw.beta[0] - 0.9) < 1e-12

    def test_balanced_step(self):
        specs = [(None, 3), (1, 3)]
        cw = compute_class_weights(toy_cohort(specs))
        assert cw.beta[0] == 0.5

    def test_single_class_fallback(self):
        cw = compute_class_weights(toy_cohort([(None, 3), (None, 4)]))
        assert np.array_equal(cw.beta, np.full(6, 0.5))

    def test_no_valid_step_fallback(self):
        cw = compute_class_weights(toy_cohort([(None, 2), (1, 2)]))
        assert np.array_equal(cw.beta[2:], np.full(4, 0.5))

    def test_empty_cohort_error(self):
        with pytest.raises(DataError):
            compute_class_weights(Cohort(small_schema(), [], T=6))


class TestSplits:
    def test_split_sizes_and_partition(self, rng):
        c = toy_cohort([(1, 3)] * 4 + [(None, 3)] * 6)
        tr, te = split_train_test(c, 0.7, rng)
        assert len(tr.patients) == 7 and len(te.patients) == 3
        ids = sorted(p.id for p in tr.patients + te.patients)
        assert ids == sorted(p.id for p in c.patients)

    def test_split_stratified(self, rng):
        c = toy_cohort([(1, 3)] * 4 + [(None, 3)] * 6)
        tr, te = split_train_test(c, 0.7, rng)
        assert te.y.any(axis=1).sum() == 1

    def test_split_deterministic(self):
        c = toy_cohort([(1, 3)] * 4 + [(None, 3)] * 6)
        a = split_train_test(c, 0.7, RngStream(5))
        b = split_train_test(c, 0.7, RngStream(5))
        assert [p.id for p in a[0].patients] == [p.id for p in b[0].patients]

    def test_split_keeps_both_sides_nonempty(self, rng):
        c = toy_cohort([(None, 3), (None, 4)])
        tr, te = split_train_test(c, 0.99, rng)
        assert len(tr.patients) == 1 and len(te.patients) == 1

    def test_split_bad_fraction(self, rng):
        with pytest.raises(DataError):
            split_train_test(toy_cohort([(None, 3), (None, 3)]), 1.0, rng)

    def test_kfold_partition(self, rng):
        c = toy_cohort([(1, 3)] * 5 + [(None, 3)] * 7)
        folds = kfold(c, 3, rng)
        assert len(folds) == 3
        val_rows = []
        for tr, va in folds:
            assert np.array_equal(np.union1d(tr, va), np.arange(12))
            assert np.all(np.diff(tr) > 0) and np.all(np.diff(va) > 0)
            val_rows.extend(va.tolist())
        assert sorted(val_rows) == list(range(12))

    def test_kfold_stratified(self, rng):
        c = toy_cohort([(1, 3)] * 6 + [(None, 3)] * 6)
        for _, va in kfold(c, 3, rng):
            assert c.y[va].any(axis=1).sum() == 2

    def test_kfold_deterministic(self):
        c = toy_cohort([(1, 3)] * 5 + [(None, 3)] * 5)
        a = kfold(c, 2, RngStream(4))
        b = kfold(c, 2, RngStream(4))
        assert np.array_equal(a[0][1], b[0][1])

    @pytest.mark.parametrize("seed", range(4))
    def test_index_rule_matches_copied_subset(self, seed):
        """The split, the folds and the class weights of some rows of a
        cohort, taken as indices, select the patients (and weights) that
        the same calls give on a copy of those rows."""
        gen = RngStream(seed).generator()
        c = toy_cohort([(int(d) if d else None, int(s)) for d, s in zip(
            gen.integers(0, 3, 40), gen.integers(3, 7, 40))], T=6)
        rows = np.flatnonzero(gen.random(40) < 0.6)
        sub = c.subset(rows)
        got = split_train_test(c, 0.7, RngStream(seed).child(1), rows)
        want = split_train_test(sub, 0.7, RngStream(seed).child(1))
        for g, w in zip(got, want):
            assert c.ids[g].tolist() == w.ids.tolist()
        for (g_tr, g_va), (w_tr, w_va) in zip(kfold(c, 3, RngStream(seed).child(2), rows),
                                              kfold_cohorts(sub, 3, RngStream(seed).child(2))):
            assert c.ids[g_tr].tolist() == w_tr.ids.tolist()
            assert c.ids[g_va].tolist() == w_va.ids.tolist()
        assert np.array_equal(compute_class_weights(c, rows).beta,
                              compute_class_weights(sub).beta)

    def test_kfold_bad_k(self, rng):
        c = toy_cohort([(None, 3)] * 4)
        with pytest.raises(DataError):
            kfold(c, 1, rng)
        with pytest.raises(DataError):
            kfold(c, 5, rng)


class TestSynth:
    def test_class_fraction_near_target(self):
        cfg = SynthConfig(n_patients=2000, mdr_fraction=0.15, seed=11)
        c = synth_cohort(cfg)
        frac = c.y.any(axis=1).mean()
        assert abs(frac - 0.15) < 0.04

    def test_seed_reproducible(self):
        cfg = SynthConfig(n_patients=50, seed=3)
        a, b = synth_cohort(cfg), synth_cohort(cfg)
        for pa, pb in zip(a.patients, b.patients):
            assert np.array_equal(pa.X, pb.X)
            assert np.array_equal(pa.M, pb.M)
            assert np.array_equal(pa.y, pb.y)

    def test_seeds_differ(self):
        a = synth_cohort(SynthConfig(n_patients=50, seed=0))
        b = synth_cohort(SynthConfig(n_patients=50, seed=1))
        assert any(
            not np.array_equal(pa.X, pb.X)
            for pa, pb in zip(a.patients, b.patients)
        )

    def test_masked_cells_store_zero(self):
        c = synth_cohort(SynthConfig(n_patients=40, missing_rate=0.3, seed=2))
        for p in c.patients:
            assert not p.X[p.M == 0.0].any()

    @pytest.mark.parametrize("field", [
        {"n_patients": 0}, {"n_patients": 30.5}, {"n_patients": True},
        {"n_care": 0}, {"T": 0}, {"seed": -1}, {"mdr_fraction": 1.0},
        {"missing_rate": float("nan")}, {"mean_stay": 0.0}, {"signal_strength": None},
    ])
    def test_bad_config_is_config_error(self, field):
        with pytest.raises(ConfigError):
            SynthConfig(**{"n_patients": 10, **field})

    def test_huge_signal_strength_saturates(self):
        # the planted scores overflow to +-inf, which the sigmoid maps to
        # 0 and 1, instead of raising an overflow warning
        c = synth_cohort(SynthConfig(n_patients=20, signal_strength=1e308, T=8))
        assert 0 < c.y.any(axis=1).sum() < 20

    def test_zero_fraction_all_negative(self):
        c = synth_cohort(SynthConfig(n_patients=60, mdr_fraction=0.0, seed=5))
        assert not c.y.any()

    def test_planted_features_are_previous_culture(self):
        cfg = SynthConfig(n_patients=1)
        schema = synth_schema(cfg)
        for name in planted_features(cfg):
            assert schema.features[schema.index(name)].group == "previous_culture"

    @pytest.mark.parametrize("missing_rate", [0.0, 0.1, 0.4])
    @pytest.mark.parametrize("T", [1, 8, 14])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_patient_oracle_bitwise(self, seed, T, missing_rate):
        cfg = SynthConfig(n_patients=40, missing_rate=missing_rate, T=T, seed=seed)
        got, want = synth_cohort(cfg), synth_cohort_by_patient(cfg)
        assert got.ids.tolist() == want.ids.tolist()
        assert np.array_equal(got.stay, want.stay)
        for a, b in zip(got.stacked(), want.stacked()):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_cohort_always_valid(self, seed):
        # Cohort() revalidates every record, so construction is the check
        synth_cohort(SynthConfig(n_patients=20, missing_rate=0.2, seed=seed))


def _row(lines, i, edit):
    """``lines`` with the cells of line ``i`` replaced by ``edit(cells)``."""
    return lines[:i] + [",".join(edit(lines[i].split(",")))] + lines[i + 1:]


# Edits of the cohort CSV that toy_cohort([(2, 4), (None, 3), (None, 2)])
# writes: line 0 is the header, lines 1-4 hold p0's days 1-4, lines 5-7 p1's
# days 1-3 and lines 8-9 p2's days 1-2. save_cohort writes none of them, and
# each is a DataError whose message holds the text given.
OFF_LAYOUT = {
    "only id and t": (lambda ls: _row(ls, 2, lambda c: c[:2]),
                      "line 3: 2 cells, expected 6"),
    "extra cell": (lambda ls: _row(ls, 2, lambda c: c + ["1"]), "line 3: 7 cells"),
    "field over the csv limit": (lambda ls: _row(ls, 2, lambda c: c[:3] + ["0" * 131073] + c[4:]),
                                 "field larger than field limit"),
    "non-UTF-8 byte": (lambda ls: _row(ls, 5, lambda c: ["p\udcff1"] + c[1:]),
                       "not CSV text"),
    "last two cells missing": (lambda ls: _row(ls, 2, lambda c: c[:-2]),
                               "line 3: 4 cells"),
    "duplicated row": (lambda ls: ls[:3] + ls[2:], "time step '2' where day 3"),
    "missing in-stay day": (lambda ls: ls[:2] + ls[3:], "time step '3' where day 2"),
    "empty patient_id": (lambda ls: ls[:8] + [ls[8][2:], ls[9][2:]],
                         "line 9: empty patient_id"),
    "days out of order": (lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:],
                          "patient p0: time step '3' where day 2"),
    "patient in two blocks": (lambda ls: ls[:4] + ls[5:] + [ls[4]],
                              "patient p0: rows are not one block"),
    "empty label": (lambda ls: _row(ls, 6, lambda c: c[:2] + [""] + c[3:]),
                    "label must be 0 or 1, got ''"),
    "blank line": (lambda ls: ls[:5] + [""] + ls[5:], "line 6: 0 cells"),
    "t with a space": (lambda ls: _row(ls, 5, lambda c: c[:1] + [" 1"] + c[2:]),
                       "time step ' 1' where day 1"),
    "days beyond T": (lambda ls: ls + [f"p2,{t},0,1,1.0,1.0" for t in range(3, 8)],
                      "time step 7 outside 1..6 for patient p2"),
    "bad number": (lambda ls: _row(ls, 2, lambda c: c[:4] + ["1.0.0"] + c[5:]),
                   "bad value in f1"),
}


# Feature cells that save_cohort never writes: Python's float reads the first
# three, "nan" is not finite and it cannot read the last two. Ids quoted over a
# comma or a line break.
ODD_CELLS = [" 2 ", "1_0", "1e0", "nan", "1.0.0", "--1"]
QUOTED_IDS = ['"a,b"', '"a\nb"']


@functools.cache
def _toy_lines() -> tuple[str, ...]:
    """The lines of the cohort CSV that OFF_LAYOUT edits."""
    with tempfile.TemporaryDirectory() as tmp:
        save_cohort(toy_cohort([(2, 4), (None, 3), (None, 2)]), Path(tmp) / "d.csv",
                    Path(tmp) / "s.txt")
        return tuple((Path(tmp) / "d.csv").read_text().splitlines())


@st.composite
def corrupted_cohort_lines(draw):
    """The toy cohort's CSV lines with one OFF_LAYOUT edit or none, then up
    to four odd feature cells, then up to two quoted ids, each for one row
    or for every row of a patient."""
    lines = list(_toy_lines())
    case = draw(st.sampled_from([None] + sorted(OFF_LAYOUT)))
    if case is not None:
        lines = OFF_LAYOUT[case][0](lines)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        if len(cells) > 3:
            j = draw(st.integers(3, len(cells) - 1))
            lines = _row(lines, i, lambda c: c[:j] + [draw(st.sampled_from(ODD_CELLS))] + c[j + 1:])
    for _ in range(draw(st.integers(0, 2))):
        quoted = draw(st.sampled_from(QUOTED_IDS))
        if draw(st.booleans()):
            pid = draw(st.sampled_from(["p0,", "p1,", "p2,"]))
            lines = [quoted + line[2:] if line.startswith(pid) else line for line in lines]
        else:
            i = draw(st.integers(1, len(lines) - 1))
            lines = lines[:i] + [quoted + lines[i][lines[i].find(","):]] + lines[i + 1:]
    return lines


def _load_outcome(load, d: Path):
    """What loading the cohort in ``d`` gives: the exception's class and
    message, or the bytes of the blocks and stays and the ids."""
    try:
        c = load(d / "d.csv", d / "s.txt", T=6)
    except Exception as exc:  # whatever either loader raises is compared
        return type(exc), str(exc)
    return [b.tobytes() for b in (c.X, c.M, c.y, c.stay)], c.ids.dtype, c.ids.tolist()


# cells that an int64 or a short repr would get wrong, and any other finite float
CELL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0**53 - 1, 2.0**53 + 1, 2.0**63, -(2.0**63), 2.0**64,
                     1e300, -1e300, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def raw_cohorts(draw):
    """An unchecked cohort of 0-4 patients with random stays, masks, labels
    and cells."""
    n, F, T = draw(st.integers(0, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    blocks = [draw(hnp.arrays(dtype, shape, elements=elements)) for dtype, shape, elements in (
        (np.float64, (n, F, T), CELL_VALUES), (bool, (n, F, T), st.booleans()),
        (np.float64, (n, T), st.sampled_from([0.0, 1.0])))]
    stay = draw(hnp.arrays(np.int64, n, elements=st.integers(1, T)))
    ids = np.array([f"p{i}" for i in range(n)], dtype=object)
    return Cohort.from_blocks(small_schema(F), T, *blocks, stay, ids)


class TestCohortIo:
    @given(raw_cohorts())
    @settings(max_examples=60, deadline=None)
    def test_writer_matches_record_oracle_bytewise(self, cohort):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            save_cohort(cohort, d / "d.csv", d / "s.txt")
            save_cohort_by_patient(cohort, d / "d0.csv", d / "s0.txt")
            assert (d / "d.csv").read_bytes() == (d / "d0.csv").read_bytes()
            assert (d / "s.txt").read_bytes() == (d / "s0.txt").read_bytes()

    def test_writer_blocks_match_record_oracle_bytewise(self, tmp_path):
        """Patients on both sides of each block edge, with the cells an int64
        or a short repr would get wrong, come out as the oracle writes them."""
        n, F, T = 2 * WRITE_BLOCK + 3, 3, 5
        gen = np.random.default_rng(9)
        special = np.array([0.0, -0.0, 2.0**53 + 1, 2.0**63, -(2.0**63), 2.0**64,
                            -1e300, 5e-324, 3.0, -7.0, 0.1])
        X = np.where(gen.random((n, F, T)) < 0.5, gen.choice(special, (n, F, T)),
                     gen.normal(scale=1e3, size=(n, F, T)))
        M = gen.random((n, F, T)) < 0.7
        y = (gen.random((n, T)) < 0.3).astype(float)
        stay = gen.integers(1, T + 1, n)
        c = Cohort.from_blocks(small_schema(F), T, X, M, y, stay,
                               np.array([f"p{i}" for i in range(n)], dtype=object))
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        save_cohort_by_patient(c, tmp_path / "d0.csv", tmp_path / "s0.txt")
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d0.csv").read_bytes()

    def test_writer_memory_does_not_grow_with_patients(self, tmp_path):
        """The file streams out 64 patients at a time (``WRITE_BLOCK``): four
        times the patients cost the writer at most a quarter more memory at
        its peak."""
        c = synth_cohort(SynthConfig(n_patients=500, missing_rate=0.2, seed=4))
        big = Cohort.from_blocks(c.schema, c.T, *(np.concatenate([b] * 4) for b in (
            c.X, c.M, c.y, c.stay)), np.array([f"q{i:05d}" for i in range(2000)], dtype=object))
        peaks = []
        for cohort in (c, big):
            tracemalloc.start()
            try:
                save_cohort(cohort, tmp_path / "d.csv", tmp_path / "s.txt")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_round_trip_bit_exact(self, tmp_path):
        c = synth_cohort(SynthConfig(n_patients=30, missing_rate=0.2, seed=7))
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        back = load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=c.T)
        assert len(back.patients) == 30
        for pa, pb in zip(c.patients, back.patients):
            assert pa.id == pb.id and pa.stay_length == pb.stay_length
            assert np.array_equal(pa.X, pb.X)
            assert np.array_equal(pa.M, pb.M)
            assert np.array_equal(pa.y, pb.y)

    def test_unknown_column(self, tmp_path):
        c = toy_cohort([(None, 2)])
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        text = (tmp_path / "d.csv").read_text()
        (tmp_path / "d.csv").write_text(text.replace("f1", "mystery"))
        with pytest.raises(SchemaError, match="mystery"):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)

    def test_time_step_out_of_range(self, tmp_path):
        c = toy_cohort([(None, 2)])
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        with open(tmp_path / "d.csv", "a") as fh:
            fh.write("p0,99,0,1,1.0,1.0\n")
        with pytest.raises(DataError, match="99"):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)

    def test_non_binary_value(self, tmp_path):
        c = toy_cohort([(None, 2)])
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "0.5"  # f0 is binary
        lines[1] = ",".join(cells)
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-binary"):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)

    def test_non_monotone_labels_rejected(self, tmp_path):
        c = toy_cohort([(2, 4)])
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        cells = lines[3].split(",")  # day 3 row
        cells[2] = "0"
        lines[3] = ",".join(cells)
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-decreasing"):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        c = synth_cohort(SynthConfig(n_patients=5, missing_rate=0.0, seed=2))
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        with open(tmp_path / "d.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("care_1")
        rows[-1][col] = bad
        with open(tmp_path / "d.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(DataError, match=f"patient {rows[-1][0]}.*care_1"):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=c.T)

    def test_bad_label_value(self, tmp_path):
        c = toy_cohort([(None, 2)])
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = "2"
        lines[1] = ",".join(cells)
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="label"):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)

    @pytest.mark.parametrize("T", [1, 8, 14])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_cell_oracle_bitwise(self, tmp_path, seed, T):
        for missing_rate in (0.0, 0.1, 0.3):
            c = synth_cohort(SynthConfig(n_patients=25, missing_rate=missing_rate,
                                         T=T, seed=seed))
            save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
            got = load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=T)
            want = load_cohort_by_cell(tmp_path / "d.csv", tmp_path / "s.txt", T=T)
            assert [p.id for p in got.patients] == [p.id for p in want.patients]
            assert [p.stay_length for p in got.patients] == [
                p.stay_length for p in want.patients]
            for a, b, dtype in zip(got.stacked()[:3], want.stacked()[:3],
                                   (np.float64, bool, np.float64)):
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("missing_rate", [0.0, 0.3])
    def test_load_then_save_reproduces_file(self, tmp_path, missing_rate):
        c = synth_cohort(SynthConfig(n_patients=30, missing_rate=missing_rate, seed=3))
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        back = load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=c.T)
        save_cohort(back, tmp_path / "d2.csv", tmp_path / "s2.txt")
        assert (tmp_path / "d2.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()
        assert (tmp_path / "s2.txt").read_bytes() == (tmp_path / "s.txt").read_bytes()

    def test_empty_cohort_round_trip(self, tmp_path):
        c = Cohort(schema=small_schema(), patients=[], T=6)
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        assert load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6).patients == []

    @pytest.mark.parametrize("case", sorted(OFF_LAYOUT))
    def test_off_layout_rejected(self, tmp_path, case):
        edit, message = OFF_LAYOUT[case]
        c = toy_cohort([(2, 4), (None, 3), (None, 2)])
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        lines = edit((tmp_path / "d.csv").read_text().splitlines())
        (tmp_path / "d.csv").write_bytes(
            "\r\n".join(lines + [""]).encode("utf-8", "surrogateescape"))
        with pytest.raises(DataError, match=message):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)

    @given(corrupted_cohort_lines())
    @settings(max_examples=150, deadline=None)
    def test_blocks_match_column_oracle(self, lines):
        """Read a block of 1, 2, 3 or READ_BLOCK rows at a time, a corrupted
        file is refused as the whole-file oracle refuses it, or loaded into
        the same bytes."""
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            d = Path(tmp)
            save_schema(small_schema(), d / "s.txt")
            (d / "d.csv").write_bytes(
                "\r\n".join(lines + [""]).encode("utf-8", "surrogateescape"))
            want = _load_outcome(load_cohort_by_column, d)
            for block in (1, 2, 3, READ_BLOCK):
                mp.setattr(data_mod, "READ_BLOCK", block)
                assert _load_outcome(load_cohort, d) == want, block

    def test_empty_id_names_its_file_line(self, tmp_path):
        """An id quoted over two lines moves every later row down a line, so
        the empty id after two such rows is on the fifth line after the
        rows before them. Read a block of 1, 2, 3 or READ_BLOCK rows at a
        time, with READ_BLOCK one-line rows first, the quoted rows are in a
        later block than the first, so their block spans more lines than
        rows and its lines are found by counting the breaks in its cells."""
        save_schema(small_schema(1), tmp_path / "s.txt")
        before = "".join(f"q{i},1,0,1\n" for i in range(READ_BLOCK))
        (tmp_path / "d.csv").write_text(
            'patient_id,t,label,f0\n' + before + '"a\nb",1,0,1\n"a\r\nb",2,0,\n,1,0,2\n')
        line = f"^cohort line {READ_BLOCK + 6}: empty patient_id$"
        with pytest.raises(DataError, match=line):
            load_cohort_by_column(tmp_path / "d.csv", tmp_path / "s.txt", T=6)
        with pytest.MonkeyPatch.context() as mp:
            for block in (1, 2, 3, READ_BLOCK):
                mp.setattr(data_mod, "READ_BLOCK", block)
                with pytest.raises(DataError, match=line):
                    load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)

    def test_width_error_allocates_only_the_valid_prefix(self, tmp_path):
        """A row of another width on line 3, before 100,000 rows of distinct
        ids, is refused on its line; the counting pass stops at it, so the
        loader allocates no blocks for the later patients and its traced
        peak stays under what holding one read block of rows takes."""
        schema = small_schema(3)
        save_schema(schema, tmp_path / "s.txt")
        rows = "".join(f"q{i},1,0,1,,2.5\n" for i in range(100_000))
        (tmp_path / "d.csv").write_text(
            "patient_id,t,label,f0,f1,f2\np,1,0,1,,2.5\np,2,0\n" + rows)
        (tmp_path / "ok.csv").write_text("patient_id,t,label,f0,f1,f2\n" + rows)
        header = ["patient_id", "t", "label"] + schema.names
        tracemalloc.start()
        try:
            first = next(read_long_csv(tmp_path / "ok.csv", header))
            one_block = tracemalloc.get_traced_memory()[1]
            del first
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(DataError, match="line 3: 3 cells, expected 6"):
                load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < one_block, (peak, one_block)

    def test_loader_memory_is_blocks_plus_one_read_block(self, tmp_path):
        """The loader counts the patients, allocates the blocks it returns
        once and writes each block of rows into them before it reads the
        next: on 2,000 patients (many read blocks) its peak exceeds those
        blocks by less than three times what holding one read block of cells
        as strings takes, and it returns the blocks that were saved."""
        c = synth_cohort(SynthConfig(n_patients=2000, seed=0))
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        header = ["patient_id", "t", "label"] + c.schema.names
        tracemalloc.start()
        try:
            first = next(read_long_csv(tmp_path / "d.csv", header))
            one_block = tracemalloc.get_traced_memory()[1]
            del first
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=c.T)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        blocks = sum(b.nbytes for b in (back.X, back.M, back.y, back.stay, back.ids))
        assert peak <= blocks + 3 * one_block, (peak, blocks, one_block)
        assert int(c.stay.sum()) > 10 * READ_BLOCK
        for a, b in zip((c.X, c.M, c.y, c.stay), (back.X, back.M, back.y, back.stay)):
            assert a.tobytes() == b.tobytes()
        assert back.ids.tolist() == c.ids.tolist()

    def test_non_utf8_schema_is_schema_error(self, tmp_path):
        c = toy_cohort([(None, 2)])
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        (tmp_path / "s.txt").write_bytes(
            (tmp_path / "s.txt").read_bytes().replace(b"f1", b"f\xff1"))
        with pytest.raises(SchemaError, match="not text"):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)


class FloatColumn(list):
    """The cells of a column that the block writer gets as a float array."""


# ids that csv must quote, and the floats at the ends of float64's range
TEXT_CELLS = st.one_of(st.sampled_from(["a,b", 'say "hi"', "a\r\nb", "a\nb", "a\rb", "", " x "]),
                       st.text(max_size=6))
EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
ANY_FLOAT = st.one_of(EDGE_FLOATS, st.sampled_from([float("nan"), float("inf"), float("-inf")]))


@st.composite
def long_csv_tables(draw):
    """Head rows of text, then blocks of equally long columns: text, ints,
    None, Python or numpy floats in lists, and float columns (a non-finite
    value now and then)."""
    head = draw(st.lists(st.lists(TEXT_CELLS, min_size=1, max_size=3), max_size=2))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        n, width = draw(st.integers(0, 5)), draw(st.integers(1, 4))
        block = []
        for _ in range(width):
            kind = draw(st.sampled_from(["text", "mixed", "float"]))
            if kind == "float":
                block.append(FloatColumn(draw(st.lists(ANY_FLOAT, min_size=n, max_size=n))))
                continue
            cells = st.one_of(TEXT_CELLS, st.integers(-10**20, 10**20), st.none(), EDGE_FLOATS,
                              EDGE_FLOATS.map(np.float64), ANY_FLOAT) if kind == "mixed" else TEXT_CELLS
            block.append(draw(st.lists(cells, min_size=n, max_size=n)))
        blocks.append(block)
    return head, blocks


class TestLongCsv:
    def test_read_returns_columns(self, tmp_path):
        write_long_csv(tmp_path / "m.csv", [["a", "b"]], [[["x", ""], [1, 2.5]]])
        assert list(read_long_csv(tmp_path / "m.csv", ["a", "b"])) == [
            ([2, 3], [("x", ""), ("1", "2.5")])]

    @pytest.mark.parametrize("rows,error,message", [
        ([["a", "c"], ["x", 1]], SchemaError, r"header \['a', 'c'\] is not \['a', 'b'\]"),
        ([], SchemaError, r"header \[\] is not"),
        ([["a", "b"], ["x", 1], ["y"]], DataError, "line 3: 1 cells, expected 2"),
    ])
    def test_read_rejects_off_layout(self, tmp_path, rows, error, message):
        write_long_csv_by_row(tmp_path / "m.csv", rows)
        with pytest.raises(error, match=message):
            list(read_long_csv(tmp_path / "m.csv", ["a", "b"]))

    def test_floats_round_trip_bit_exact(self, tmp_path):
        values = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        values += list(RngStream(11).generator().normal(scale=1e3, size=50))
        write_long_csv(tmp_path / "f.csv", [["v"]], [[np.array(values)]])
        with open(tmp_path / "f.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        back = np.array([float(r[0]) for r in rows[1:]])
        assert np.array_equal(back.view(np.uint64), np.array(values).view(np.uint64))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float64("nan")],
                             ids=["nan", "inf", "-inf", "np.float64-nan"])
    def test_non_finite_float_refused(self, tmp_path, value):
        """The one writer of float artefacts is the backstop against a silent
        NaN: it raises and leaves no partial file, also in place of an old one."""
        path = tmp_path / "m.csv"
        for values in ([0.5, value, 0.25], np.array([0.5, value, 0.25])):  # a list, a float array
            path.write_text("old\n")
            with pytest.raises(FloatingPointError, match="non-finite value"):
                write_long_csv(path, [["name", "value"]], [[["a", "b", "c"], values]])
            assert not path.exists()

    def test_error_in_rows_removes_file(self, tmp_path):
        def blocks():
            yield [["a"], [0.5]]
            raise ValueError("cannot format")

        with pytest.raises(ValueError):
            write_long_csv(tmp_path / "m.csv", [["name", "value"]], blocks())
        assert not (tmp_path / "m.csv").exists()

    def test_none_ints_and_strings(self, tmp_path):
        write_long_csv(tmp_path / "m.csv", [["# note"], ["name", "t", "value"]],
                       [[["a,b", "x"], np.array([3, -7]), [None, 2.5]]])
        assert (tmp_path / "m.csv").read_bytes() == (
            b'# note\r\nname,t,value\r\n"a,b",3,\r\nx,-7,2.5\r\n'
        )

    @given(long_csv_tables())
    @example(([], [[FloatColumn([0.5, float("nan")]), [float("inf"), 0.5]]]))  # row order
    @settings(max_examples=150, deadline=None)
    def test_block_writer_matches_row_oracle(self, table):
        """Head rows and blocks of columns, each float column as a float
        array or in a list, give the bytes of the row-at-a-time writer, or
        its refusal of the first non-finite float with no file left."""
        head, blocks = table
        rows = head + [list(row) for block in blocks for row in zip(*block)]
        cast = [[np.array(c) if isinstance(c, FloatColumn) else c for c in block]
                for block in blocks]
        with tempfile.TemporaryDirectory() as tmp:
            outcomes = []
            for write, args in ((write_long_csv_by_row, (rows,)), (write_long_csv, (head, cast))):
                path = Path(tmp) / "m.csv"
                try:
                    write(path, *args)
                    outcomes.append(path.read_bytes())
                except FloatingPointError as exc:
                    assert not path.exists()
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


def assert_masked_blocks(c: Cohort, records) -> None:
    """The cohort holds the records' mask as bool and, in X, the float-mask
    X⊙M bit for bit, signed zeros included."""
    assert c.M.dtype == bool and c.X.dtype == np.float64
    assert np.array_equal(c.M, [p.M == 1.0 for p in records])
    want = float_mask_product(records)
    assert c.X.shape == want.shape and c.X.tobytes() == want.tobytes()


class TestMaskedBlocks:
    """Every producer of a cohort keeps M as a bool block and X as X⊙M,
    with the bits of the product the commands formed from a float64 mask."""

    @pytest.mark.parametrize("missing_rate", [0.0, 0.1, 0.3])
    def test_synth(self, missing_rate):
        cfg = SynthConfig(n_patients=40, missing_rate=missing_rate, seed=6)
        assert_masked_blocks(synth_cohort(cfg), synth_records_by_patient(cfg))

    def test_load(self, tmp_path):
        c = synth_cohort(SynthConfig(n_patients=40, missing_rate=0.3, seed=6))
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        got = load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=c.T)
        _, records = load_records_by_cell(tmp_path / "d.csv", tmp_path / "s.txt", T=c.T)
        assert_masked_blocks(got, records)

    def test_records_constructor_masks_stored_values(self):
        records = float_records([(None, 3), (2, 4), (None, 5)])
        for p, value in zip(records, (5.0, -5.0, -0.0)):
            p.M[1, 0] = 0.0
            p.X[1, 0] = value
        c = Cohort(small_schema(), records, T=6)
        assert_masked_blocks(c, records)
        stored = c.X[:, 1, 0]
        assert np.array_equal(np.signbit(stored), [False, True, True]) and not stored.any()

    def test_subset_split_and_folds(self, rng):
        records = float_records([(None, 3), (2, 4), (None, 5), (1, 6), (None, 2), (3, 6)])
        for p in records:
            p.M[0, 0] = 0.0
            p.X[0, 0] = -1.5
        c = Cohort(small_schema(), records, T=6)
        by_id = {p.id: p for p in records}
        parts = [c.subset([4, 1, 1]), *split_train_test(c, 0.5, rng.child(0))]
        parts += [c.subset(rows) for fold in kfold(c, 3, rng.child(1)) for rows in fold]
        for part in parts:
            assert_masked_blocks(part, [by_id[i] for i in part.ids])
