"""Cohort data model, CSV ingestion, label construction, class weights,
splits/folds, and a planted-signal synthetic cohort generator.

Time steps are 1-based in files and messages; arrays index them 0-based.
A patient's step t is valid iff t <= stay_length, and mask columns beyond
the stay are all zero.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, SchemaError
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
        if self.n_patients <= 0:
            raise DataError("n_patients must be positive")
        for n in (
            self.n_previous_culture,
            self.n_antibiotic,
            self.n_environment,
            self.n_care,
        ):
            if n <= 0:
                raise DataError("per-group feature counts must be positive")
        if not (0.0 <= self.mdr_fraction < 1.0):
            raise DataError("mdr_fraction must be in [0, 1)")
        if not (0.0 <= self.missing_rate < 1.0):
            raise DataError("missing_rate must be in [0, 1)")
        if self.T < 1 or self.mean_stay <= 0:
            raise DataError("T and mean_stay must be positive")


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
# File formats: schema (key-value blocks), cohort CSV (one row per
# patient-day, empty feature cell = masked, empty label = day beyond stay) and
# the long-format CSV shared by every score, attribution and metric artefact.
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
    text = Path(path).read_text()
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
        key, value = line.split(":", 1)
        current[key.strip()] = value.strip()
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
    schema = load_schema(schema_path)
    expected = ["patient_id", "t", "label"] + schema.names
    rows_by_patient: dict[str, list[tuple[int, str, list[str]]]] = {}
    order: list[str] = []
    with open(data_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("cohort file is empty")
        if header != expected:
            unknown = [h for h in header[3:] if h not in schema.names]
            if unknown:
                raise SchemaError(f"unknown feature columns: {unknown}")
            raise SchemaError("cohort header does not match schema feature order")
        for row in reader:
            if not row:
                continue
            pid, t_str, label = row[0], row[1], row[2]
            try:
                t = int(t_str)
            except ValueError as exc:
                raise DataError(f"non-integer time step {t_str!r}") from exc
            if not (1 <= t <= T):
                raise DataError(f"time step {t} outside 1..{T} for patient {pid}")
            if pid not in rows_by_patient:
                rows_by_patient[pid] = []
                order.append(pid)
            rows_by_patient[pid].append((t, label, row[3:]))

    patients = []
    for pid in order:
        rows = sorted(rows_by_patient[pid], key=lambda r: r[0])
        labeled = [(t, lab, cells) for t, lab, cells in rows if lab.strip() != ""]
        if not labeled:
            raise DataError(f"patient {pid} has no labeled days")
        stay = max(t for t, _, _ in labeled)
        X = np.zeros((schema.F, T))
        M = np.zeros((schema.F, T))
        y = np.zeros(T)
        for t, lab, cells in labeled:
            if lab not in ("0", "1"):
                raise DataError(f"patient {pid}: label must be 0 or 1, got {lab!r}")
            y[t - 1] = float(lab)
            for f, cell in enumerate(cells):
                if cell.strip() == "":
                    continue
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise DataError(
                        f"patient {pid}: bad value {cell!r} in {schema.names[f]}"
                    ) from exc
                if not math.isfinite(value):
                    raise DataError(
                        f"patient {pid}: non-finite value {cell!r} in {schema.names[f]}"
                    )
                if schema.features[f].kind == "binary" and value not in (0.0, 1.0):
                    raise DataError(
                        f"patient {pid}: non-binary value {value} in binary "
                        f"feature {schema.names[f]}"
                    )
                X[f, t - 1] = value
                M[f, t - 1] = 1.0
        patients.append(PatientRecord(id=pid, X=X, M=M, y=y, stay_length=stay))
    return Cohort(schema=schema, patients=patients, T=T)
