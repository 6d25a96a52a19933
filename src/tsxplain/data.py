"""Cohort data model, CSV ingestion, label construction, class weights,
splits/folds, and a planted-signal synthetic cohort generator.

Time steps are 1-based in files and messages; arrays index them 0-based.
A patient's step t is valid iff t <= stay_length, and mask columns beyond
the stay are all zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DataError, SchemaError, check_values, integer, number
from .numerics import RngStream, sigmoid

KINDS = ("binary", "numeric")
GROUPS = ("previous_culture", "antibiotic", "environment", "care")
SCOPES = ("all", "positive", "negative")

DEFAULT_T = 14


@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    kind: str
    group: str

    def __post_init__(self):
        # the schema file holds one stripped value per line
        if not isinstance(self.name, str) or self.name.strip().splitlines() != [self.name]:
            raise SchemaError(f"feature name {self.name!r} is empty, padded or spans lines")
        if self.kind not in KINDS:
            raise SchemaError(f"unknown kind {self.kind!r} for feature {self.name!r}")
        if self.group not in GROUPS:
            raise SchemaError(f"unknown group {self.group!r} for feature {self.name!r}")


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[FeatureDescriptor, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")
        if not names:
            raise SchemaError("schema must contain at least one feature")

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def F(self) -> int:
        return len(self.features)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def group_indices(self, group: str) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.group == group]


@dataclass
class PatientRecord:
    """One patient's fields. The records a cohort hands out are views into
    its blocks, so they hold its bool mask and its masked values."""

    id: str
    X: np.ndarray  # (F, T) float64; X * M in a cohort's records
    M: np.ndarray  # (F, T) 0/1; bool in a cohort's records
    y: np.ndarray  # (T,) in {0, 1}
    stay_length: int


class Cohort:
    """Patients as the rows of one block per field: the observation mask
    ``M`` (n, F, T) bool, the values ``X`` (n, F, T) float64, ``y`` (n, T),
    and the stay lengths ``stay`` and ``ids`` (n,).

    ``X`` holds X⊙M, the product the model reads, with the bits of the
    float product ``X * M``: 0 at each unobserved cell, or -0.0 where the
    stored value was negative. No command forms the product again.
    ``Cohort(schema, patients, T)`` stacks the given records as float64,
    validates them, and then keeps ``M == 1.0`` and ``X * M``;
    ``from_blocks`` takes blocks as they are.
    """

    def __init__(self, schema: FeatureSchema, patients, T: int = DEFAULT_T):
        F, n = schema.F, len(patients)
        for p in patients:
            if p.X.shape != (F, T) or p.M.shape != (F, T) or p.y.shape != (T,):
                raise DataError(f"patient {p.id}: X/M must be {F}x{T} and y of length {T}")

        def block(field, *shape):
            return np.array([getattr(p, field) for p in patients],
                            dtype=np.float64).reshape(n, *shape)

        self.schema, self.T = schema, T
        self.X, self.M, self.y = block("X", F, T), block("M", F, T), block("y", T)
        self.stay = np.array([p.stay_length for p in patients], dtype=np.int64)
        self.ids = np.array([p.id for p in patients], dtype=object)
        self._validate()  # on the float mask, so a 0.5 or NaN in it is named
        self.X *= self.M
        self.M = self.M == 1.0

    @classmethod
    def from_blocks(cls, schema: FeatureSchema, T: int, X, M, y, stay, ids) -> "Cohort":
        """The cohort whose patient i is row i of every block, unchecked: the
        blocks are the cohort's own, ``M`` bool and ``X`` holding X⊙M."""
        c = cls.__new__(cls)
        c.schema, c.T, c.X, c.M, c.y, c.stay, c.ids = schema, T, X, M, y, stay, ids
        return c

    def _validate(self) -> "Cohort":
        """Check every rule over the whole blocks at once. The first patient
        that breaks any rule is named, with the first rule it breaks."""
        X, M, y, valid = self.stacked()

        def anywhere(flags):  # per patient, so no (n, F, T) flags outlive their rule
            return flags.any(axis=tuple(range(1, flags.ndim)))

        rules = [  # (flags of the offending patients; message)
            ((self.stay < 1) | (self.stay > self.T), f"stay_length out of 1..{self.T}"),
            (np.zeros(len(M), dtype=bool) if M.dtype == bool
             else anywhere((M != 0.0) & (M != 1.0)), "mask must be binary"),
            (anywhere(M.any(axis=1) & ~valid), "mask set beyond stay"),
            (anywhere((y != 0.0) & (y != 1.0)), "labels must be 0 or 1"),
            (anywhere((y != 0.0) & ~valid), "label set beyond stay"),
            (anywhere((y[:, 1:] < y[:, :-1]) & valid[:, 1:]), "labels must be non-decreasing"),
            # a nan or an infinity is a patient's min or max, so no flag per cell is made
            (~(np.isfinite(X.min(axis=(1, 2), initial=0.0))
               & np.isfinite(X.max(axis=(1, 2), initial=0.0))),
             "values must be finite"),
        ]
        bad = np.array([b for b, _ in rules])  # (rules, n)
        offenders = np.flatnonzero(bad.any(axis=0))
        if offenders.size:
            i = offenders[0]
            raise DataError(f"patient {self.ids[i]}: {rules[np.argmax(bad[:, i])][1]}")
        return self

    @property
    def F(self) -> int:
        return self.schema.F

    @cached_property
    def patients(self) -> list[PatientRecord]:
        """One record per patient, whose X, M and y are views into the
        blocks: a write through a record changes the cohort."""
        return [PatientRecord(id=self.ids[i], X=self.X[i], M=self.M[i], y=self.y[i],
                              stay_length=int(self.stay[i])) for i in range(len(self.ids))]

    def subset(self, indices) -> "Cohort":
        """A copy of the patients at ``indices``, in that order. The blocks
        were validated when this cohort was built, so they are not checked
        again."""
        idx = np.asarray(indices, dtype=np.intp)
        return Cohort.from_blocks(self.schema, self.T, self.X[idx], self.M[idx],
                                  self.y[idx], self.stay[idx], self.ids[idx])

    def scope_indices(self, scope: str) -> list[int]:
        """Indices of the patients in scope: "all", "positive" (ever turns
        positive) or "negative" (never does)."""
        if scope not in SCOPES:
            raise ConfigError(f"unknown scope {scope!r}")
        positive = self.y.any(axis=1)
        picked = np.flatnonzero((scope == "all") | (positive == (scope == "positive")))
        if not picked.size:
            raise DataError(f"no patients in scope {scope!r}")
        return picked.tolist()

    def row_indices(self, rows=None) -> np.ndarray:
        """``rows`` as an array of indices into the blocks, every patient by
        default."""
        return np.arange(len(self.ids)) if rows is None else np.asarray(rows, dtype=np.intp)

    def labels(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """The labels (n, T) of the patients at ``rows`` (every patient by
        default) and the flags of the steps within their stays."""
        rows = slice(None) if rows is None else rows
        return self.y[rows], np.arange(self.T) < self.stay[rows, None]

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return the blocks X, M and y themselves, shapes (n,F,T)/(n,T), and
        the (n, T) flags of the steps within each stay."""
        return self.X, self.M, self.y, self.labels()[1]


@dataclass(frozen=True)
class ClassWeights:
    beta: np.ndarray  # (T,), each in (0, 1)


def build_labels(culture_day: Optional[int], stay_length: int, T: int) -> np.ndarray:
    """Zeros up to the flagged culture day, ones from it through the stay."""
    if not (1 <= stay_length <= T):
        raise DataError(f"stay_length {stay_length} out of 1..{T}")
    y = np.zeros(T, dtype=np.float64)
    if culture_day is None:
        return y
    if not (1 <= culture_day <= stay_length):
        raise DataError(
            f"culture_day {culture_day} outside 1..stay_length={stay_length}"
        )
    y[culture_day - 1 : stay_length] = 1.0
    return y


def compute_class_weights(train: Cohort, rows=None) -> ClassWeights:
    """Per-step weight = majority-class share among the patients at ``rows``
    (every patient by default) valid at that step.

    Steps with a single class or no valid patients fall back to 0.5, which
    reduces the balanced loss to plain BCE there.
    """
    y, valid = train.labels(rows)
    if not len(y):
        raise DataError("cannot compute class weights for an empty cohort")
    n = valid.sum(axis=0)
    pos = ((y == 1.0) & valid).sum(axis=0)
    both = (pos > 0) & (pos < n)
    beta = np.full(train.T, 0.5)
    beta[both] = np.maximum(pos, n - pos)[both] / n[both]
    return ClassWeights(beta=beta)


def _stratified_order(c: Cohort, rows: np.ndarray,
                      rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``rows`` of the patients who ever turn positive and of
    those who never do, each group shuffled: the one rule that the split and
    the folds deal patients by."""
    gen = rng.generator()
    positive = c.y[rows].any(axis=1)
    pos, neg = np.flatnonzero(positive), np.flatnonzero(~positive)
    return pos[gen.permutation(len(pos))], neg[gen.permutation(len(neg))]


def split_train_test(c: Cohort, train_fraction: float, rng: RngStream, rows=None):
    """Patient-level disjoint split, stratified by whether the patient ever
    turns positive. Given ``rows`` (sorted indices into ``c``), it splits
    those patients and returns the sorted (train, test) indices into ``c``;
    without, it splits every patient and returns the two cohorts."""
    if not (0.0 < train_fraction < 1.0):
        raise DataError("train_fraction must be in (0, 1)")
    every = c.row_indices(rows)
    if len(every) < 2:
        raise DataError("need at least 2 patients to split")
    train_idx, test_idx = [], []
    for group in _stratified_order(c, every, rng):
        n_tr = int(round(train_fraction * len(group)))
        if len(group) >= 2:
            n_tr = min(max(n_tr, 1), len(group) - 1)
        train_idx.append(group[:n_tr])
        test_idx.append(group[n_tr:])
    parts = tuple(every[np.sort(np.concatenate(part))] for part in (train_idx, test_idx))
    return parts if rows is not None else tuple(map(c.subset, parts))


def kfold(c: Cohort, k: int, rng: RngStream, rows=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """k patient-disjoint stratified folds of ``rows`` (sorted indices into
    ``c``, every patient by default): the sorted (train, validation) indices
    into ``c`` of each fold. Each patient validates exactly once."""
    every = c.row_indices(rows)
    if k < 2:
        raise DataError("k must be at least 2")
    if k > len(every):
        raise DataError(f"k={k} exceeds patient count {len(every)}")
    order = np.concatenate(_stratified_order(c, every, rng))
    fold = np.arange(len(order)) % k
    return [(every[np.sort(order[fold != i])], every[np.sort(order[fold == i])])
            for i in range(k)]


# numpy's Poisson draw of the stays rejects a mean above about 9.22e18; the
# stays are clipped to T, so a mean this large already makes every stay T long
MAX_MEAN_STAY = 1e18
SYNTH_RULES = {
    "n_patients": integer(1), "mdr_fraction": number("[0, 1)"),
    "n_previous_culture": integer(1), "n_antibiotic": integer(1),
    "n_environment": integer(1), "n_care": integer(1), "signal_strength": number(),
    "missing_rate": number("[0, 1)"), "mean_stay": number(f"(0, {MAX_MEAN_STAY}]"),
    "T": integer(1), "seed": integer(0),
}


@dataclass(frozen=True)
class SynthConfig:
    n_patients: int
    mdr_fraction: float = 0.15
    n_previous_culture: int = 4
    n_antibiotic: int = 4
    n_environment: int = 3
    n_care: int = 3
    signal_strength: float = 4.0
    missing_rate: float = 0.1
    mean_stay: float = 8.0
    T: int = DEFAULT_T
    seed: int = 0

    def __post_init__(self):
        check_values(vars(self), SYNTH_RULES, "synth")


def synth_schema(cfg: SynthConfig) -> FeatureSchema:
    feats = []
    for i in range(cfg.n_previous_culture):
        feats.append(FeatureDescriptor(f"pc_{i}", "binary", "previous_culture"))
    for i in range(cfg.n_antibiotic):
        feats.append(FeatureDescriptor(f"abx_{i}", "binary", "antibiotic"))
    for i in range(cfg.n_environment):
        feats.append(FeatureDescriptor(f"env_{i}", "numeric", "environment"))
    for i in range(cfg.n_care):
        kind = "binary" if i % 2 == 0 else "numeric"
        feats.append(FeatureDescriptor(f"care_{i}", kind, "care"))
    return FeatureSchema(tuple(feats))


def planted_features(cfg: SynthConfig) -> list[str]:
    """Names of the features that carry the planted class signal."""
    return [f"pc_{i}" for i in range(cfg.n_previous_culture)]


def planted_steps(cfg: SynthConfig) -> list[int]:
    """1-based steps where the planted signal is active (early stay)."""
    return [1, 2, 3]


def _calibrate_intercept(scores: np.ndarray, target: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.mean(sigmoid(scores + mid))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def synth_cohort(cfg: SynthConfig) -> Cohort:
    """Generate a cohort whose positive labels are driven by early activation
    of the previous-culture flags; all other feature groups are noise."""
    schema = synth_schema(cfg)
    F, T, n = schema.F, cfg.T, cfg.n_patients
    stream = RngStream(cfg.seed)
    g_stay = stream.child(0).generator()
    g_pc = stream.child(1).generator()
    g_label = stream.child(2).generator()
    g_feat = stream.child(3).generator()
    g_mask = stream.child(4).generator()

    stays = np.clip(1 + g_stay.poisson(max(cfg.mean_stay - 1.0, 0.0), size=n), 1, T)

    n_pc = cfg.n_previous_culture
    active = g_pc.random((n, n_pc)) < 0.35
    onset = np.where(g_pc.random((n, n_pc)) < 0.7, 1, 2)
    signal = active.sum(axis=1).astype(np.float64)

    std = float(signal.std())
    if cfg.signal_strength > 0 and std > 0:
        with np.errstate(over="ignore"):  # a huge strength saturates to +-inf
            scores = cfg.signal_strength * (signal - signal.mean()) / std
    else:
        scores = np.zeros(n)
    if cfg.mdr_fraction <= 0.0:
        p = np.zeros(n)
    else:
        p = sigmoid(scores + _calibrate_intercept(scores, cfg.mdr_fraction))
    positive = g_label.random(n) < p
    culture_geom = g_label.geometric(0.6, size=n)

    pc_idx = schema.group_indices("previous_culture")
    abx_idx = schema.group_indices("antibiotic")
    env_idx = schema.group_indices("environment")
    care_idx = schema.group_indices("care")

    X, M = np.zeros((n, F, T)), np.zeros((n, F, T), dtype=bool)
    y = np.zeros((n, T))
    for i in range(n):
        stay = int(stays[i])
        for j, f in enumerate(pc_idx):
            if active[i, j]:
                start = min(int(onset[i, j]), stay)
                X[i, f, start - 1 : stay] = 1.0
        for f in abx_idx:
            for _ in range(int(g_feat.integers(1, 3))):
                start = int(g_feat.integers(1, stay + 1))
                dur = int(g_feat.geometric(0.4))
                X[i, f, start - 1 : min(start - 1 + dur, stay)] = 1.0
        for f in env_idx:
            X[i, f, :stay] = g_feat.poisson(3.0, size=stay).astype(np.float64)
        for f in care_idx:
            if schema.features[f].kind == "binary":
                X[i, f, :stay] = (g_feat.random(stay) < 0.3).astype(np.float64)
            else:
                X[i, f, :stay] = np.round(g_feat.gamma(2.0, 1.5, size=stay), 3)

        y[i] = build_labels(int(min(culture_geom[i], stay)) if positive[i] else None, stay, T)

        M[i, :, :stay] = True
        if cfg.missing_rate > 0:
            drop = g_mask.random((F, stay)) < cfg.missing_rate
            M[i, :, :stay][drop] = False
    X *= M  # missing cells store 0 by construction
    ids = np.array([f"p{i:05d}" for i in range(n)], dtype=object)
    return Cohort.from_blocks(schema, T, X, M, y, stays, ids)._validate()


# ---------------------------------------------------------------------------
# File formats: schema (key-value blocks) and the long-format CSV that the
# cohort and every score, attribution and metric artefact share, written by
# write_long_csv and read by read_long_csv. The cohort CSV has
# the header `patient_id,t,label,<schema names>`, then each patient's rows for
# days 1..stay in order as one block; an empty feature cell is unobserved.
# ---------------------------------------------------------------------------


def save_schema(schema: FeatureSchema, path) -> None:
    lines = []
    for f in schema.features:
        lines.append(f"name: {f.name}")
        lines.append(f"kind: {f.kind}")
        lines.append(f"group: {f.group}")
        lines.append("")
    Path(path).write_text("\n".join(lines))


def load_schema(path) -> FeatureSchema:
    feats = []
    current: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"schema file is not text: {exc}") from exc
    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if not line:
            if current:
                try:
                    feats.append(
                        FeatureDescriptor(
                            current["name"], current["kind"], current["group"]
                        )
                    )
                except KeyError as exc:
                    raise SchemaError(f"schema block missing key {exc}") from exc
                current = {}
            continue
        if ":" not in line:
            raise SchemaError(f"malformed schema line: {line!r}")
        key, value = (part.strip() for part in line.split(":", 1))
        if key not in ("name", "kind", "group") or key in current:
            why = "duplicate" if key in current else "unknown"
            raise SchemaError(f"{why} schema key {key!r} in line {line!r}")
        current[key] = value
    return FeatureSchema(tuple(feats))


def _finite(value: float, path) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise FloatingPointError(f"{path}: non-finite value {value!r}; nothing written")
    return value


def write_long_csv(path, rows) -> None:
    """Write a long-format CSV artefact, header rows included. Floats are
    written as ``repr`` so ``float(cell)`` restores them bit-exactly, ``None``
    (an undefined value) becomes an empty cell, and ints and strings are
    written unchanged. A non-finite float is a FloatingPointError, and on any
    error while the rows are written the file is removed."""
    with open(path, "w", newline="") as fh:
        try:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow([
                    repr(_finite(v, path)) if isinstance(v, float) else ("" if v is None else v)
                    for v in row
                ])
        except BaseException:
            fh.close()
            Path(path).unlink()
            raise


# Rows that read_long_csv hands over at once. A reader turns each block into
# numbers before it asks for the next, so it holds one block of cells as
# Python strings, never the whole file.
READ_BLOCK = 1024


def read_long_csv(path, header: list[str]) -> Iterator[tuple[list[int], list[tuple[str, ...]]]]:
    """Read a long-format CSV whose first row is ``header``, ``READ_BLOCK``
    rows at a time. Each block comes as the file line on which each of its
    rows ends and one tuple of cells per column. Another header is a
    SchemaError; a row of another width, bytes that are not UTF-8 or a cell
    over the ``csv`` field limit is a DataError, raised when the reader
    reaches it."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, [])
            if got != header:
                raise SchemaError(f"{path}: header {got} is not {header}")
            lines, rows = [], []
            for row in reader:
                if len(row) != len(header):
                    raise DataError(f"{path} line {reader.line_num}: {len(row)} cells, "
                                    f"expected {len(header)}")
                lines.append(reader.line_num)
                rows.append(row)
                if len(rows) == READ_BLOCK:
                    yield lines, list(zip(*rows))
                    lines, rows = [], []
            if rows:
                yield lines, list(zip(*rows))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not CSV text: {exc}") from exc


# Patients whose rows save_cohort formats at once: the file streams out one
# block at a time, so the writer's memory does not grow with the cohort. On
# 3,000 patients, blocks of 32 to 256 write equally fast; a block of 64 holds
# about 1 MB of cells at its peak, one of 256 about 3.5 MB.
WRITE_BLOCK = 64


def _format_cell(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _format_cells(values: np.ndarray) -> np.ndarray:
    """``_format_cell`` of each value of a 1-D array of finite values, each
    distinct value formatted once (0.0 and -0.0 are one value, and both
    format as ``0``)."""
    unique, inverse = np.unique(values, return_inverse=True)
    return np.array([_format_cell(v) for v in unique.tolist()], dtype=object)[inverse]


def save_cohort(cohort: Cohort, data_path, schema_path) -> None:
    save_schema(cohort.schema, schema_path)

    def rows():
        yield ["patient_id", "t", "label"] + cohort.schema.names
        for start in range(0, len(cohort.ids), WRITE_BLOCK):
            part = slice(start, start + WRITE_BLOCK)
            i, t = np.nonzero(np.arange(cohort.T) < cohort.stay[part, None])  # in-stay days
            X = cohort.X[part].transpose(0, 2, 1)[i, t]
            seen = cohort.M[part].transpose(0, 2, 1)[i, t]
            table = np.full((len(i), 3 + cohort.F), "", dtype=object)
            table[:, 0] = cohort.ids[part][i]
            table[:, 1] = t + 1
            table[:, 2] = cohort.y[part][i, t].astype(np.int64)
            table[:, 3:][seen] = _format_cells(X[seen])
            yield from table.tolist()

    write_long_csv(data_path, rows())


def load_cohort(data_path, schema_path, T: int = DEFAULT_T) -> Cohort:
    """Read back exactly what ``save_cohort`` writes: F + 3 cells a row, a
    nonempty id, days 1..stay <= T, a 0/1 label, and in each feature cell
    nothing or a finite number (0 or 1 if binary). Any other header is a
    SchemaError, and any other row a DataError. ``M`` flags the nonempty
    cells and ``X`` holds their values, 0 elsewhere: X⊙M as it is.

    A first pass counts the patients, so X, M and y are allocated once.
    Then each block of rows is turned into numbers and written into them
    before the next is read, so the loader holds the blocks and one block
    of rows. Only a patient's first id cell is kept as a string. The first
    failure of each check is recorded, and after the last block the first
    check that failed is raised: an empty id, a patient in two blocks, the
    day sequence, a day past T, the label, then per feature an unparsable
    cell before a non-finite or non-binary one."""
    schema = load_schema(schema_path)
    header = ["patient_id", "t", "label"] + schema.names
    failed: dict[tuple, str] = {}  # check -> message of its first failure
    # count the patients (runs of rows with one id) first, so the blocks are
    # allocated once: blocks grown while reading are moved by realloc, and
    # that kept a long-running process's peak RSS where two copies of the
    # values had put it
    count, prev = 0, None
    for _, (ids, *_) in read_long_csv(data_path, header):
        count += sum(a != b for a, b in zip((prev,) + ids[:-1], ids))
        prev = ids[-1]
    X = np.zeros((count, schema.F, T))
    M = np.zeros(X.shape, dtype=bool)
    y = np.zeros((count, T))

    def record(check, bad, message) -> None:
        if check not in failed and bad.any():
            failed[check] = message(int(np.argmax(bad)))

    starts, first_ids = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=object)]
    n_rows, n_patients, last_id, last_start = 0, 0, None, 0

    def fill(lines, columns) -> None:
        """Check a block's rows and write their days into the blocks. Its
        strings are dropped on return, but for the first id of each
        patient."""
        nonlocal n_rows, n_patients, last_id, last_start
        ids, days, labels = (np.array(c, dtype=object) for c in columns[:3])
        rows = np.arange(n_rows, n_rows + len(ids))
        new = np.concatenate(([ids[0] != last_id], ids[1:] != ids[:-1]))  # a block per patient
        start = np.maximum.accumulate(np.where(new, rows, last_start))
        day = rows - start + 1
        patient = n_patients + np.cumsum(new) - 1
        starts.append(rows[new])
        first_ids.append(ids[new])
        n_rows, n_patients, last_id, last_start = rows[-1] + 1, patient[-1] + 1, ids[-1], start[-1]

        record((1,), ids == "", lambda r: f"cohort line {lines[r]}: empty patient_id")
        record((3,), days != day.astype(str),
               lambda r: f"patient {ids[r]}: time step {days[r]!r} where day {day[r]} is due")
        record((4,), day > T, lambda r: f"time step {day[r]} outside 1..{T} for patient {ids[r]}")
        record((5,), (labels != "0") & (labels != "1"),
               lambda r: f"patient {ids[r]}: label must be 0 or 1, got {labels[r]!r}")

        cells = np.array(columns[3:], dtype=object)
        seen = cells != ""
        values = np.zeros(cells.shape)
        for f, feature in enumerate(schema.features):
            try:
                parsed = cells[f, seen[f]].astype(np.float64)
            except ValueError as exc:
                failed.setdefault((6, f, 0), f"bad value in {feature.name}: {exc}")
                continue
            at = np.flatnonzero(seen[f])
            record((6, f, 1),
                   ~np.isfinite(parsed) | (feature.kind == "binary") & ~np.isin(parsed, (0.0, 1.0)),
                   lambda i: f"patient {ids[at[i]]} day {day[at[i]]}: "
                             f"{'non-binary' if np.isfinite(parsed[i]) else 'non-finite'} "
                             f"value {cells[f, at[i]]!r} in {feature.name}")
            values[f, at] = parsed
        keep = day <= T  # a day past T is not written: its check already failed
        X[patient[keep], :, day[keep] - 1] = values.T[keep]
        M[patient[keep], :, day[keep] - 1] = seen.T[keep]
        y[patient[keep], day[keep] - 1] = labels[keep] == "1"

    for lines, columns in read_long_csv(data_path, header):
        fill(lines, columns)
    ids = np.concatenate(first_ids)
    block_ids, blocks = np.unique(ids, return_counts=True)
    record((2,), blocks > 1, lambda i: f"patient {block_ids[i]}: rows are not one block")
    if failed:
        raise DataError(failed[min(failed)])
    stay = np.diff(np.r_[np.concatenate(starts), n_rows])
    return Cohort.from_blocks(schema, T, X, M, y, stay, ids)._validate()
