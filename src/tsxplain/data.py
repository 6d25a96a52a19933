"""Cohort data model, CSV ingestion, label construction, class weights,
splits/folds, and a planted-signal synthetic cohort generator.

Time steps are 1-based in files and messages; arrays index them 0-based.
A patient's step t is valid iff t <= stay_length, and mask columns beyond
the stay are all zero.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, SchemaError, is_finite_real, is_integer
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
    id: str
    X: np.ndarray  # (F, T) float64
    M: np.ndarray  # (F, T) binary 0/1
    y: np.ndarray  # (T,) in {0, 1}
    stay_length: int

    def validate(self, F: int, T: int) -> None:
        if self.X.shape != (F, T) or self.M.shape != (F, T):
            raise DataError(f"patient {self.id}: X/M must be {F}x{T}")
        if self.y.shape != (T,):
            raise DataError(f"patient {self.id}: y must have length {T}")
        if not (1 <= self.stay_length <= T):
            raise DataError(f"patient {self.id}: stay_length out of 1..{T}")
        if not np.isin(self.M, (0.0, 1.0)).all():
            raise DataError(f"patient {self.id}: mask must be binary")
        if self.M[:, self.stay_length:].any():
            raise DataError(f"patient {self.id}: mask set beyond stay")
        if self.y[self.stay_length:].any():
            raise DataError(f"patient {self.id}: label set beyond stay")
        valid = self.y[: self.stay_length]
        if np.any(np.diff(valid) < 0):
            raise DataError(f"patient {self.id}: labels must be non-decreasing")

    @property
    def is_positive(self) -> bool:
        return bool(self.y.any())

    def valid_steps(self) -> np.ndarray:
        flags = np.zeros(self.y.shape[0], dtype=bool)
        flags[: self.stay_length] = True
        return flags


@dataclass
class Cohort:
    schema: FeatureSchema
    patients: list[PatientRecord]
    T: int = DEFAULT_T

    def __post_init__(self):
        for p in self.patients:
            p.validate(self.schema.F, self.T)

    @property
    def F(self) -> int:
        return self.schema.F

    def subset(self, indices) -> "Cohort":
        """The patients at ``indices``, in that order. The records were
        validated when this cohort was built, so they are not checked again."""
        sub = copy.copy(self)
        sub.patients = [self.patients[i] for i in indices]
        return sub

    def scope_indices(self, scope: str) -> list[int]:
        """Indices of the patients in scope: "all", "positive" (ever turns
        positive) or "negative" (never does)."""
        if scope not in SCOPES:
            raise ConfigError(f"unknown scope {scope!r}")
        picked = [
            i for i, p in enumerate(self.patients)
            if scope == "all" or p.is_positive == (scope == "positive")
        ]
        if not picked:
            raise DataError(f"no patients in scope {scope!r}")
        return picked

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (X, M, y, valid) stacked over patients, shapes (n,F,T)/(n,T)."""
        X = np.stack([p.X for p in self.patients])
        M = np.stack([p.M for p in self.patients])
        y = np.stack([p.y for p in self.patients])
        valid = np.stack([p.valid_steps() for p in self.patients])
        return X, M, y, valid


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


def compute_class_weights(train: Cohort) -> ClassWeights:
    """Per-step weight = majority-class share among patients valid at that step.

    Steps with a single class or no valid patients fall back to 0.5, which
    reduces the balanced loss to plain BCE there.
    """
    if not train.patients:
        raise DataError("cannot compute class weights for an empty cohort")
    beta = np.full(train.T, 0.5)
    _, _, y, valid = train.stacked()
    for t in range(train.T):
        sel = valid[:, t]
        n = int(sel.sum())
        if n == 0:
            continue
        pos = int(y[sel, t].sum())
        neg = n - pos
        if pos == 0 or neg == 0:
            continue
        beta[t] = max(pos, neg) / n
    return ClassWeights(beta=beta)


def _stratified_order(c: Cohort, rng: RngStream) -> tuple[list[int], list[int]]:
    gen = rng.generator()
    pos = [i for i, p in enumerate(c.patients) if p.is_positive]
    neg = [i for i, p in enumerate(c.patients) if not p.is_positive]
    pos = [pos[j] for j in gen.permutation(len(pos))]
    neg = [neg[j] for j in gen.permutation(len(neg))]
    return pos, neg


def split_train_test(
    c: Cohort, train_fraction: float, rng: RngStream
) -> tuple[Cohort, Cohort]:
    """Patient-level disjoint split, stratified by whether the patient ever
    turns positive."""
    if not (0.0 < train_fraction < 1.0):
        raise DataError("train_fraction must be in (0, 1)")
    if len(c.patients) < 2:
        raise DataError("need at least 2 patients to split")
    pos, neg = _stratified_order(c, rng)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for group in (pos, neg):
        if not group:
            continue
        n_tr = int(round(train_fraction * len(group)))
        if len(group) >= 2:
            n_tr = min(max(n_tr, 1), len(group) - 1)
        train_idx.extend(group[:n_tr])
        test_idx.extend(group[n_tr:])
    return c.subset(sorted(train_idx)), c.subset(sorted(test_idx))


def kfold(c: Cohort, k: int, rng: RngStream) -> list[tuple[Cohort, Cohort]]:
    """k patient-disjoint stratified folds; each patient validates exactly once."""
    if k < 2:
        raise DataError("k must be at least 2")
    if k > len(c.patients):
        raise DataError(f"k={k} exceeds patient count {len(c.patients)}")
    pos, neg = _stratified_order(c, rng)
    folds: list[list[int]] = [[] for _ in range(k)]
    for j, idx in enumerate(pos + neg):
        folds[j % k].append(idx)
    pairs = []
    for i in range(k):
        val = sorted(folds[i])
        train = sorted(idx for j in range(k) if j != i for idx in folds[j])
        pairs.append((c.subset(train), c.subset(val)))
    return pairs


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
        for name in ("n_patients", "n_previous_culture", "n_antibiotic",
                     "n_environment", "n_care", "T", "seed"):
            value = getattr(self, name)
            least = 0 if name == "seed" else 1
            if not (is_integer(value) and value >= least):
                raise ConfigError(f"synth {name} must be an integer >= {least}, got {value!r}")
        for name in ("mdr_fraction", "signal_strength", "missing_rate", "mean_stay"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ConfigError(f"synth {name} must be a finite number, got {value!r}")
        if not (0.0 <= self.mdr_fraction < 1.0):
            raise ConfigError("mdr_fraction must be in [0, 1)")
        if not (0.0 <= self.missing_rate < 1.0):
            raise ConfigError("missing_rate must be in [0, 1)")
        if self.mean_stay <= 0:
            raise ConfigError("mean_stay must be positive")


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

    patients = []
    for i in range(n):
        stay = int(stays[i])
        X = np.zeros((F, T))
        for j, f in enumerate(pc_idx):
            if active[i, j]:
                start = min(int(onset[i, j]), stay)
                X[f, start - 1 : stay] = 1.0
        for f in abx_idx:
            for _ in range(int(g_feat.integers(1, 3))):
                start = int(g_feat.integers(1, stay + 1))
                dur = int(g_feat.geometric(0.4))
                X[f, start - 1 : min(start - 1 + dur, stay)] = 1.0
        for f in env_idx:
            X[f, :stay] = g_feat.poisson(3.0, size=stay).astype(np.float64)
        for f in care_idx:
            if schema.features[f].kind == "binary":
                X[f, :stay] = (g_feat.random(stay) < 0.3).astype(np.float64)
            else:
                X[f, :stay] = np.round(g_feat.gamma(2.0, 1.5, size=stay), 3)

        if positive[i]:
            culture_day = int(min(culture_geom[i], stay))
            y = build_labels(culture_day, stay, T)
        else:
            y = build_labels(None, stay, T)

        M = np.zeros((F, T))
        M[:, :stay] = 1.0
        if cfg.missing_rate > 0:
            drop = g_mask.random((F, stay)) < cfg.missing_rate
            M[:, :stay][drop] = 0.0
        X = X * M  # missing cells store 0 by construction

        patients.append(
            PatientRecord(id=f"p{i:05d}", X=X, M=M, y=y, stay_length=stay)
        )
    return Cohort(schema=schema, patients=patients, T=T)


# ---------------------------------------------------------------------------
# File formats: schema (key-value blocks), cohort CSV and the long-format CSV
# shared by every score, attribution and metric artefact. The cohort CSV has
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


def write_long_csv(path, rows) -> None:
    """Write a long-format CSV artefact, header rows included. Floats are
    written as ``repr`` so ``float(cell)`` restores them bit-exactly, ``None``
    (an undefined value) becomes an empty cell, and ints and strings are
    written unchanged."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([
                repr(float(v)) if isinstance(v, float) else ("" if v is None else v)
                for v in row
            ])


def _format_cell(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def save_cohort(cohort: Cohort, data_path, schema_path) -> None:
    save_schema(cohort.schema, schema_path)
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "t", "label"] + cohort.schema.names)
        for p in cohort.patients:
            for t in range(p.stay_length):
                row = [p.id, str(t + 1), str(int(p.y[t]))]
                for f in range(cohort.F):
                    row.append(_format_cell(p.X[f, t]) if p.M[f, t] == 1.0 else "")
                writer.writerow(row)


def load_cohort(data_path, schema_path, T: int = DEFAULT_T) -> Cohort:
    """Read back exactly what ``save_cohort`` writes: F + 3 cells a row, a
    nonempty id, days 1..stay <= T, a 0/1 label, and in each feature cell
    nothing or a finite number (0 or 1 if binary). Any other header is a
    SchemaError, and any other row a DataError."""
    schema = load_schema(schema_path)
    expected = ["patient_id", "t", "label"] + schema.names
    columns: list[list[str]] = [[] for _ in expected]
    try:
        with open(data_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header != expected:
                raise SchemaError(f"cohort header {header} is not {expected}")
            for row in reader:
                if len(row) != len(expected):
                    raise DataError(f"cohort line {reader.line_num}: {len(row)} cells, "
                                    f"expected {len(expected)}")
                for column, cell in zip(columns, row):
                    column.append(cell)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cohort file is not CSV text: {exc}") from exc

    def reject(bad, message) -> None:
        if bad.any():
            raise DataError(message(int(np.argmax(bad))))

    ids, days, labels = (np.array(c, dtype=object) for c in columns[:3])
    start = np.flatnonzero(np.r_[len(ids) > 0, ids[1:] != ids[:-1]])  # a block per patient
    stay = np.diff(np.r_[start, len(ids)])
    patient = np.repeat(np.arange(len(start)), stay)
    day = np.arange(len(ids)) - start[patient] + 1
    reject(ids == "", lambda r: f"cohort line {r + 2}: empty patient_id")
    block_ids, blocks = np.unique(ids[start], return_counts=True)
    reject(blocks > 1, lambda i: f"patient {block_ids[i]}: rows are not one block")
    due = np.array([str(d) for d in range(stay.max(initial=0) + 1)], dtype=object)[day]
    reject(days != due,
           lambda r: f"patient {ids[r]}: time step {days[r]!r} where day {day[r]} is due")
    reject(day > T, lambda r: f"time step {day[r]} outside 1..{T} for patient {ids[r]}")
    reject((labels != "0") & (labels != "1"),
           lambda r: f"patient {ids[r]}: label must be 0 or 1, got {labels[r]!r}")

    X, M = np.zeros((2, len(start), schema.F, T))
    y = np.zeros((len(start), T))
    y[patient, day - 1] = labels == "1"
    for f, feature in enumerate(schema.features):
        cells = np.array(columns[3 + f], dtype=object)
        seen = np.flatnonzero(cells != "")
        try:
            values = cells[seen].astype(np.float64)
        except ValueError as exc:
            raise DataError(f"bad value in {feature.name}: {exc}") from exc
        binary = feature.kind == "binary"
        reject(~np.isfinite(values) | (binary & ~np.isin(values, (0.0, 1.0))),
               lambda i: f"patient {ids[seen[i]]} day {day[seen[i]]}: "
                         f"{'non-binary' if np.isfinite(values[i]) else 'non-finite'} "
                         f"value {cells[seen[i]]!r} in {feature.name}")
        X[patient[seen], f, day[seen] - 1] = values
        M[patient[seen], f, day[seen] - 1] = 1.0
    patients = [PatientRecord(id=columns[0][s], X=X[i], M=M[i], y=y[i],
                              stay_length=int(stay[i])) for i, s in enumerate(start)]
    return Cohort(schema=schema, patients=patients, T=T)
