import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsxplain.data import (
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
from oracles import load_cohort_by_cell


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


class TestValidation:
    def test_mask_beyond_stay_rejected(self):
        c = toy_cohort([(None, 3)])
        p = c.patients[0]
        p.M[0, 4] = 1.0
        with pytest.raises(DataError, match="beyond stay"):
            p.validate(c.F, c.T)

    def test_decreasing_labels_rejected(self):
        c = toy_cohort([(2, 5)])
        p = c.patients[0]
        p.y[3] = 0.0
        with pytest.raises(DataError, match="non-decreasing"):
            p.validate(c.F, c.T)

    def test_nonbinary_mask_rejected(self):
        c = toy_cohort([(None, 3)])
        p = c.patients[0]
        p.M[0, 0] = 0.5
        with pytest.raises(DataError, match="binary"):
            p.validate(c.F, c.T)


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
        assert [p.id for p in sub.patients] == ["p3", "p0", "p2"]
        assert all(a is b for a, b in zip(sub.patients, [c.patients[i] for i in (3, 0, 2)]))
        assert sub.schema is c.schema
        assert sub.T == c.T == 7

    def test_patient_list_independent_of_parent(self):
        c = toy_cohort([(None, 3), (2, 4), (None, 5)])
        sub = c.subset(range(2))
        extra = c.patients[2]
        sub.patients.append(extra)
        assert [p.id for p in c.patients] == ["p0", "p1", "p2"]
        c.patients.pop(0)
        assert [p.id for p in sub.patients] == ["p0", "p1", "p2"]


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
        assert sum(p.is_positive for p in te.patients) == 1

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
        val_ids = []
        for tr, va in folds:
            assert len(tr.patients) + len(va.patients) == 12
            val_ids.extend(p.id for p in va.patients)
        assert sorted(val_ids) == sorted(p.id for p in c.patients)

    def test_kfold_stratified(self, rng):
        c = toy_cohort([(1, 3)] * 6 + [(None, 3)] * 6)
        for _, va in kfold(c, 3, rng):
            assert sum(p.is_positive for p in va.patients) == 2

    def test_kfold_deterministic(self):
        c = toy_cohort([(1, 3)] * 5 + [(None, 3)] * 5)
        a = kfold(c, 2, RngStream(4))
        b = kfold(c, 2, RngStream(4))
        assert [p.id for p in a[0][1].patients] == [p.id for p in b[0][1].patients]

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
        frac = np.mean([p.is_positive for p in c.patients])
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

    def test_zero_fraction_all_negative(self):
        c = synth_cohort(SynthConfig(n_patients=60, mdr_fraction=0.0, seed=5))
        assert not any(p.is_positive for p in c.patients)

    def test_planted_features_are_previous_culture(self):
        cfg = SynthConfig(n_patients=1)
        schema = synth_schema(cfg)
        for name in planted_features(cfg):
            assert schema.features[schema.index(name)].group == "previous_culture"

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


class TestCohortIo:
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
            for a, b in zip(got.stacked()[:3], want.stacked()[:3]):
                assert a.dtype == b.dtype == np.float64
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

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

    def test_non_utf8_schema_is_schema_error(self, tmp_path):
        c = toy_cohort([(None, 2)])
        save_cohort(c, tmp_path / "d.csv", tmp_path / "s.txt")
        (tmp_path / "s.txt").write_bytes(
            (tmp_path / "s.txt").read_bytes().replace(b"f1", b"f\xff1"))
        with pytest.raises(SchemaError, match="not text"):
            load_cohort(tmp_path / "d.csv", tmp_path / "s.txt", T=6)


class TestLongCsv:
    def test_floats_round_trip_bit_exact(self, tmp_path):
        values = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, float("inf")]
        values += list(RngStream(11).generator().normal(scale=1e3, size=50))
        write_long_csv(tmp_path / "f.csv", [["v"]] + [[v] for v in values])
        with open(tmp_path / "f.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        back = np.array([float(r[0]) for r in rows[1:]])
        assert np.array_equal(back.view(np.uint64), np.array(values).view(np.uint64))

    def test_none_ints_and_strings(self, tmp_path):
        write_long_csv(tmp_path / "m.csv", [["# note"], ["name", "t", "value"],
                                            ["a,b", 3, None], ["x", -7, 2.5]])
        assert (tmp_path / "m.csv").read_bytes() == (
            b'# note\r\nname,t,value\r\n"a,b",3,\r\nx,-7,2.5\r\n'
        )
