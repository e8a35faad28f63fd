"""Property tests of invariants the docstrings state: the matrix-file and
record round trips (storage), the range of average precision (metrics),
the fuse/split objective identity (multimodal), the reconstruction error
of a dictionary update (dictlearn) and the EM log-likelihood (gmm).

Kept apart from the unit tests so that a checkout without hypothesis still
collects those."""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmsparse.dictlearn import _update_columns
from mmsparse.errors import InputError
from mmsparse.gmm import fit_gmm_em
from mmsparse.metrics import RankedList, average_precision
from mmsparse.multimodal import (
    JointDictionary,
    ModalityPair,
    fuse_rows,
    lambda_joint_of,
    split_joint,
)
from mmsparse.solvers import Dictionary
from mmsparse.storage import load_matrix, load_record, save_matrix, save_record

from helpers import examples, lasso_objective, unit_column_dictionary

F32_MAX = float(np.finfo(np.float32).max)


@settings(max_examples=examples(60), deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=st.floats(-F32_MAX, F32_MAX),
    )
)
def test_matrix_file_round_trip_is_bit_exact_after_float32_cast(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.scmx")
        save_matrix(path, matrix)
        loaded = load_matrix(path)
    want = matrix.astype(np.float32).astype(np.float64)
    assert loaded.dtype == np.float64 and loaded.shape == matrix.shape
    assert loaded.tobytes() == want.tobytes()


@settings(max_examples=examples(100), deadline=None)
@given(st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=6))
def test_record_round_trip(entries):
    """save_record either refuses a record or writes one that load_record
    reads back unchanged; it refuses none whose keys are one-line,
    stripped, free of "=" and not comments, and whose values are one-line
    and stripped."""
    one_line = lambda s: len(s.splitlines()) <= 1 and s == s.strip()
    plain = all(
        one_line(k) and "=" not in k and not k.startswith("#") and one_line(v)
        for k, v in entries.items()
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.meta")
        try:
            save_record(path, entries)
        except InputError:
            assert not plain
            return
        assert load_record(path) == entries


@settings(max_examples=examples(100), deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.booleans()), min_size=1, max_size=20
    ),
    st.booleans(),
)
def test_average_precision_range_and_perfect_ranking(items, separate):
    """AP lies in [0, 1]; when every relevant clip scores above every
    irrelevant one, AP is 1 (given at least one relevant clip)."""
    scores = np.array([s for s, _ in items])
    relevance = np.array([r for _, r in items], dtype=np.int64)
    if separate:
        # irrelevant clips move below the lowest relevant score
        scores = np.where(relevance == 1, scores, scores - 3e6)
    ids = tuple(f"c{i:02d}" for i in range(len(items)))
    ap = average_precision(RankedList(scores, relevance, ids))
    assert 0.0 <= ap <= 1.0
    if separate and relevance.any():
        assert ap == 1.0


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(1, 6),
    nv=st.integers(1, 6),
    k=st.integers(1, 8),
    lambda2=st.floats(0.0, 10.0),
)
def test_fused_objective_splits_by_modality(seed, na, nv, k, lambda2):
    """||x_av - D_av y||^2 + lam' ||y||_1 equals
    (1/N_a)(||x_a - D_a y||^2 + lam'' ||y||_1) + (1/N_v)(same for video)
    with lam' = lambda_joint_of(lam'') and D_a, D_v from split_joint."""
    rng = np.random.default_rng(seed)
    jd = JointDictionary(unit_column_dictionary(rng, na + nv, k), (na, nv))
    d_a, d_v = split_joint(jd)
    x_a, x_v = rng.standard_normal(na), rng.standard_normal(nv)
    y = rng.standard_normal(k) * (rng.random(k) < 0.5)
    lam_joint = lambda_joint_of(lambda2, ModalityPair(na, nv))
    fused = lasso_objective(fuse_rows([x_a], [x_v])[0], jd.inner, y, lam_joint)
    split = (lasso_objective(x_a, d_a, y, lambda2) / na
             + lasso_objective(x_v, d_v, y, lambda2) / nv)
    assert math.isclose(fused, split, rel_tol=1e-12, abs_tol=1e-12)


def _squared_error(X, Y, atoms) -> float:
    R = X - Y @ atoms.T
    return float(np.sum(R * R))


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 20),
    n=st.integers(1, 8),
    k=st.integers(1, 10),
    log_scale=st.floats(-3.0, 4.0),
    density=st.floats(0.0, 1.0),
    passes=st.integers(1, 4),
)
def test_dictionary_update_never_raises_error(seed, m, n, k, log_scale, density, passes):
    """Each pass of _update_columns, also on its own output, keeps
    the reconstruction error within 1e-9 of max(1, error before)."""
    rng = np.random.default_rng(seed)
    d = unit_column_dictionary(rng, n, k)
    X = rng.standard_normal((m, n)) * 10.0**log_scale
    Y = rng.standard_normal((m, k)) * 10.0**log_scale * (rng.random((m, k)) < density)
    for _ in range(passes):
        before = _squared_error(X, Y, d.atoms)
        d = Dictionary(_update_columns(X, Y, d.atoms)[0])
        assert _squared_error(X, Y, d.atoms) <= before + 1e-9 * max(1.0, before)


@settings(max_examples=examples(40), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    dim=st.integers(1, 5),
    m=st.integers(1, 6),
    log_scale=st.floats(-3.0, 3.0),
    clumps=st.integers(0, 8),
)
def test_em_log_likelihood_never_falls_between_reseeds(seed, n, dim, m, log_scale, clumps):
    """The log-likelihood of successive EM iterations never falls, except
    across a re-seed: at most one fall per re-seeded component. The slack
    is the rounding room of the expanded Mahalanobis sum, whose terms reach
    max x^2 / variance floor per row and dimension."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim)) * 10.0**log_scale
    if clumps:  # repeated rows, so components can collapse to the floor
        X = X[rng.integers(0, min(clumps, n), size=n)]
    m = min(m, n)
    g, stats = fit_gmm_em(X, m, seed=seed % 1000, max_iter=40)
    lls = np.asarray(stats.log_likelihood_per_iter)
    slack = 64 * np.finfo(float).eps * n * dim * float(np.max(X * X)) / g.variance_floor
    falls = np.diff(lls) < -(slack + 1e-12 * np.abs(lls[:-1]))
    assert int(falls.sum()) <= stats.reseeds, lls
