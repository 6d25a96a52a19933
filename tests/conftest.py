import numpy as np
import pytest

from tsxplain.data import (
    Cohort,
    FeatureDescriptor,
    FeatureSchema,
    PatientRecord,
    build_labels,
)
from tsxplain.numerics import RngStream


def small_schema(F: int = 3) -> FeatureSchema:
    kinds = ["binary", "numeric", "numeric", "binary"]
    groups = ["previous_culture", "environment", "care", "antibiotic"]
    feats = tuple(
        FeatureDescriptor(f"f{i}", kinds[i % 4], groups[i % 4]) for i in range(F)
    )
    return FeatureSchema(feats)


def toy_cohort(specs, F: int = 3, T: int = 6, seed: int = 0) -> Cohort:
    """Build a cohort from (culture_day-or-None, stay_length) pairs with
    random observed values."""
    schema = small_schema(F)
    gen = RngStream(seed).generator()
    patients = []
    for i, (culture_day, stay) in enumerate(specs):
        X = np.zeros((F, T))
        M = np.zeros((F, T))
        M[:, :stay] = 1.0
        for f in range(F):
            if schema.features[f].kind == "binary":
                X[f, :stay] = (gen.random(stay) < 0.5).astype(float)
            else:
                X[f, :stay] = np.round(gen.normal(1.0, 0.5, stay), 3)
        y = build_labels(culture_day, stay, T)
        patients.append(
            PatientRecord(id=f"p{i}", X=X, M=M, y=y, stay_length=stay)
        )
    return Cohort(schema=schema, patients=patients, T=T)


def freeze(cohort: Cohort) -> Cohort:
    """The cohort, with its blocks made read-only so that a write raises."""
    for block in (cohort.X, cohort.M, cohort.y, cohort.stay):
        block.flags.writeable = False
    return cohort


@pytest.fixture
def rng():
    return RngStream(123)
