"""Kernel probes: median wall time of the model's public batch kernels on
batches cut from a workload's cohort, run untraced after the traced run.

The parameters come from ``init_params`` with a fixed seed; the kernels'
cost depends on shapes, not on parameter values.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH_REPEATS = 201
COALITION_REPEATS = 31
BATCH = 64
COALITION_ROWS = 1024
HIDDEN = 8


def _median_ms(fn, repeats: int) -> float:
    fn()  # first call outside the timing
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def kernel_probes(cohort) -> dict[str, float]:
    from tsxplain.data import Cohort, compute_class_weights
    from tsxplain.model import (TrainedModel, backward, forward_prepared, init_params,
                                schema_fingerprint)
    from tsxplain.numerics import RngStream

    batch = Cohort(cohort.schema, cohort.patients[:BATCH], cohort.T)
    X, M, y, valid = batch.stacked()
    Xin = X * M
    beta = compute_class_weights(batch)
    fp = schema_fingerprint(cohort.schema)
    # a coalition-sized batch: the 64 patients' masked inputs, repeated
    Xwide = np.tile(Xin, (COALITION_ROWS // BATCH, 1, 1))

    out = {}
    for variant, use_attention in (("", False), ("_attention", True)):
        gru, att = init_params(cohort.F, HIDDEN, RngStream(0), use_attention)
        model = TrainedModel(gru=gru, attention=att, schema_fingerprint=fp)
        out[f"model.forward_batch{variant}_ms"] = _median_ms(
            lambda: forward_prepared(Xin, gru, att), BATCH_REPEATS)
        out[f"model.backward_batch{variant}_ms"] = _median_ms(
            lambda: backward((X, M, y, valid), model, beta), BATCH_REPEATS)
        if not use_attention:
            out["model.forward_coalition_ms"] = _median_ms(
                lambda: forward_prepared(Xwide, gru, att), COALITION_REPEATS)
    return out
