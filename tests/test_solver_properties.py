"""Property tests of the LASSO engine, from one row up to 170, past the
benchmark's largest call (168 rows), and of one row's homotopy path against
its reference.

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
    _path,
    kkt_violation,
    lasso_encode_batch,
)

from helpers import examples, path_reference, unit_column_dictionary


def odd_atoms(rng, n, k, twins, copies):
    """n x k unit atoms; with `twins` the last atom is atom 0 moved 1e-7 and
    renormalized, with `copies` atom 1 is an exact copy of atom 2 (where k
    has room for them)."""
    atoms = np.array(unit_column_dictionary(rng, n, k).atoms)
    if twins and k >= 2:
        twin = atoms[:, 0] + 1e-7 * rng.standard_normal(n)
        atoms[:, -1] = twin / np.linalg.norm(twin)
    if copies and k >= 3:
        atoms[:, 1] = atoms[:, 2]
    return atoms


def assert_engines_agree(xs, atoms, lam, tol, max_iter, copied):
    """The lockstep's codes and flags are the per-row paths' to the bit,
    unless an atom has an exact copy (`copied`). Then a join ratio is 0/0
    and rounding decides the path, so either engine may end a row the other
    fails: rows both end have the same code bytes, and every row either
    ends passes the KKT test at tol. Returns the paths' and the lockstep's
    (codes, ok)."""
    G = atoms.T @ atoms
    path = _homotopy(xs, atoms, G, lam, tol, max_iter)
    step = _homotopy(xs, atoms, G, lam, tol, max_iter, lockstep=True)
    if not copied:
        assert step[1].tobytes() == path[1].tobytes()
        assert step[0].tobytes() == path[0].tobytes()
        return path, step
    both = path[1] & step[1]
    assert step[0][both].tobytes() == path[0][both].tobytes()
    d = Dictionary(atoms, normalized=False)
    for codes, ok in (path, step):
        for x, y in zip(xs[ok], codes[ok]):
            assert kkt_violation(x, d, y, lam) <= tol
    return path, step


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
    # lockstep homotopy agrees with the per-row paths (see
    # assert_engines_agree) on either side of the row count that switches
    # it on, and the input is left as it was.
    rng = np.random.default_rng(seed)
    atoms = odd_atoms(rng, n, k, twins, copies)
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
    copied = copies and k >= 3
    path, step = assert_engines_agree(xs, d.atoms, lam, cfg.tol, cfg.max_iter, copied)
    # the engine the batch ran
    run_codes, run_ok = step if m >= _LOCKSTEP_MIN_ROWS else path
    assert ok[run_ok].all()
    assert codes[run_ok].tobytes() == run_codes[run_ok].tobytes()
    G = d.atoms.T @ d.atoms
    for i in range(m):
        (yi,), (yi_ok,) = lasso_encode_batch(xs[i][None, :], d, cfg)
        # An exact copy of an atom leaves a 0/0 join ratio on the path, so
        # the path is decided by rounding, which a one-row call (run by
        # _path) rounds unlike a batch: the row can end on the path in one
        # and fall to descent in the other. Where both end on the path,
        # they agree.
        if not copied or run_ok[i] and _homotopy(
                xs[i:i + 1], d.atoms, G, lam, cfg.tol, cfg.max_iter)[1][0]:
            np.testing.assert_allclose(codes[i], yi, rtol=0, atol=1e-9)
            assert yi_ok == ok[i]
        if ok[i]:
            assert kkt_violation(xs[i], d, codes[i], lam) <= cfg.tol


@settings(max_examples=examples(40), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(_LOCKSTEP_MIN_ROWS, 170),
    n=st.integers(1, 10),
    k=st.integers(1, 16),
    lam=st.floats(0.05, 2.0),
    rescaled=st.booleans(),
    twins=st.booleans(),
    copies=st.booleans(),
    max_iter=st.one_of(st.integers(1, 5), st.just(1000)),
)
def test_lockstep_matches_paths_on_any_budget(seed, m, n, k, lam, rescaled, twins,
                                              copies, max_iter):
    # On a step budget that cuts most paths short (so rows run out of steps
    # in the lockstep and its arrays are compacted on the way) or one that
    # lets them end, over unit or rescaled atoms with or without twin and
    # copied atoms: the lockstep agrees with the per-row paths (see
    # assert_engines_agree).
    rng = np.random.default_rng(seed)
    atoms = odd_atoms(rng, n, k, twins, copies)
    if rescaled:
        atoms = atoms * rng.uniform(0.2, 3.0, size=k)
    xs = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0)
    assert_engines_agree(xs, atoms, lam, 1e-8, max_iter, copies and k >= 3)


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


@settings(max_examples=examples(200), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    k=st.integers(1, 32),
    lam=st.floats(0.01, 2.0),
    style=st.sampled_from(["unit", "rescaled", "split"]),
    twins=st.booleans(),
    copies=st.booleans(),
    max_iter=st.one_of(st.integers(1, 3), st.just(1000)),
)
def test_path_matches_reference(seed, n, k, lam, style, twins, copies, max_iter):
    # Over unit-norm, rescaled and split-style atoms, with or without twin
    # atoms 1e-7 apart and an exact copy of an atom, on a budget that cuts
    # most paths short or one that lets them end: _path takes the
    # reference's steps, so it returns the same active list and the same
    # y_A bytes, or None where the reference does.
    rng = np.random.default_rng(seed)
    atoms = odd_atoms(rng, n, k, twins, copies)
    if style == "rescaled":
        atoms = atoms * rng.uniform(0.2, 3.0, size=k)
    elif style == "split":
        atoms = atoms[: max(1, n // 2)] * np.sqrt(max(1, n // 2))
    x = rng.standard_normal(atoms.shape[0]) * rng.uniform(0.5, 3.0)
    c0, G = atoms.T @ x, atoms.T @ atoms
    got = _path(c0, G, 0.5 * lam, max_iter)
    ref = path_reference(c0, G, 0.5 * lam, max_iter)
    if ref is None:
        assert got is None
    else:
        assert got[0] == ref[0]
        assert got[1].tobytes() == ref[1].tobytes()
