"""Property tests of the LASSO engine, from one row up to 170, past the
benchmark's largest call (168 rows).

Kept apart from test_solvers.py so that a checkout without hypothesis still
collects the solver oracles there."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsparse.solvers import (
    _LOCKSTEP_MIN_ROWS,
    Dictionary,
    SolverConfig,
    _homotopy,
    kkt_violation,
    lasso_encode,
    lasso_encode_batch,
)

from helpers import examples, unit_column_dictionary


@settings(max_examples=examples(40), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.one_of(st.integers(1, _LOCKSTEP_MIN_ROWS - 1), st.integers(_LOCKSTEP_MIN_ROWS, 170)),
    n=st.integers(1, 10),
    k=st.integers(1, 16),
    lam=st.floats(0.05, 2.0),
    normalized=st.booleans(),
    twins=st.booleans(),
    copies=st.booleans(),
    repeated=st.booleans(),
)
def test_engine_properties(seed, m, n, k, lam, normalized, twins, copies, repeated):
    # Over unit-norm and split-style (unnormalized) atoms, with or without
    # twin atoms 1e-7 apart, an exact copy of an atom and repeated rows:
    # converged rows are optimal, every row is its own one-row solve, the
    # lockstep homotopy gives the per-row paths' codes and flags to the
    # bit, on either side of the row count that switches it on, and the
    # input is left as it was.
    rng = np.random.default_rng(seed)
    atoms = np.array(unit_column_dictionary(rng, n, k).atoms)
    if twins and k >= 2:
        twin = atoms[:, 0] + 1e-7 * rng.standard_normal(n)
        atoms[:, -1] = twin / np.linalg.norm(twin)
    if copies and k >= 3:
        atoms[:, 1] = atoms[:, 2]
    if not normalized:
        atoms = atoms * rng.uniform(0.2, 3.0, size=k)
    d = Dictionary(atoms, normalized=normalized)
    xs = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0)
    if repeated:
        xs[m // 2:] = xs[: m - m // 2]
    before = xs.copy()
    cfg = SolverConfig(lam=lam)
    codes, ok = lasso_encode_batch(xs, d, cfg)
    np.testing.assert_array_equal(xs, before)
    G = d.atoms.T @ d.atoms
    path_codes, path_ok = _homotopy(xs, d.atoms, G, lam, cfg.tol, cfg.max_iter)
    step_codes, step_ok = _homotopy(xs, d.atoms, G, lam, cfg.tol, cfg.max_iter, lockstep=True)
    np.testing.assert_array_equal(step_ok, path_ok)
    assert step_codes.tobytes() == path_codes.tobytes()
    assert ok[path_ok].all()
    assert codes[path_ok].tobytes() == path_codes[path_ok].tobytes()
    for i in range(m):
        yi = lasso_encode(xs[i], d, cfg)
        # An exact copy of an atom leaves a 0/0 join ratio on the path, so
        # the path is decided by the rounding of D^T x, which a one-row call
        # rounds unlike a batch: the row can end on the path in one and fall
        # to descent in the other. Where both end on the path, they agree.
        if not (copies and k >= 3) or path_ok[i] and _homotopy(
                xs[i:i + 1], d.atoms, G, lam, cfg.tol, cfg.max_iter)[1][0]:
            np.testing.assert_allclose(codes[i], yi.coeffs, rtol=0, atol=1e-9)
            assert yi.converged == ok[i]
        assert yi.support == tuple(np.flatnonzero(yi.coeffs))
        if ok[i]:
            assert kkt_violation(xs[i], d, codes[i], lam) <= cfg.tol


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 170),
    n=st.integers(1, 10),
    k=st.integers(1, 16),
    lam=st.floats(0.05, 2.0),
    split=st.booleans(),
)
def test_converged_rows_are_exact(seed, m, n, k, lam, split):
    # Converged rows are the exact solution, up to rounding: the
    # homotopy's end point, solved afresh on its active set. Split atoms
    # are the first rows of a unit-norm dictionary scaled by sqrt(rows),
    # as multimodal.split_joint makes them.
    rng = np.random.default_rng(seed)
    if split:
        joint = unit_column_dictionary(rng, n + int(rng.integers(1, 10)), k).atoms
        d = Dictionary(joint[:n] * np.sqrt(n), normalized=False)
    else:
        d = unit_column_dictionary(rng, n, k)
    xs = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0)
    codes, ok = lasso_encode_batch(xs, d, SolverConfig(lam=lam))
    for x, y in zip(xs[ok], codes[ok]):
        scale = max(1.0, float(np.max(np.abs(2.0 * d.atoms.T @ x))))
        assert kkt_violation(x, d, y, lam) <= 1e-12 * scale
