import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmc import linalg
from _oracles import (
    gram_singular_values_2x2,
    norms,
    numerical_rank,
    project_rowcol,
    svd,
    weighted_frob_double_loop,
    weighted_frobenius,
)

RNG = np.random.default_rng(20240915)


def random_matrix(rng, m1=None, m2=None, scale=1.0):
    m1 = m1 or rng.integers(1, 9)
    m2 = m2 or rng.integers(1, 9)
    return scale * rng.standard_normal((m1, m2))


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------

def test_svd_diagonal():
    f = svd(np.diag([3.0, 1.0]))
    assert np.allclose(f.singular_values, [3.0, 1.0])
    assert np.allclose(np.abs(f.U), np.eye(2))
    assert np.allclose(f.U, f.V)


def test_svd_zero_matrix():
    f = svd(np.zeros((2, 3)))
    assert np.allclose(f.singular_values, 0.0)


def test_svd_gram_oracle_2x2():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    s1, s2 = gram_singular_values_2x2(A)
    # sigma^2 are roots of t^2 - 30 t + 4
    assert s1 * s1 + s2 * s2 == pytest.approx(30.0)
    assert (s1 * s2) ** 2 == pytest.approx(4.0)
    f = svd(A)
    assert f.singular_values[0] == pytest.approx(s1, rel=1e-12)
    assert f.singular_values[1] == pytest.approx(s2, rel=1e-12)


def test_svd_invariants_random_sizes():
    for _ in range(60):
        A = random_matrix(RNG, scale=float(RNG.uniform(0.1, 50)))
        f = svd(A)
        q = min(A.shape)
        assert f.U.shape == (A.shape[0], q)
        assert f.V.shape == (A.shape[1], q)
        assert np.all(np.diff(f.singular_values) <= 1e-12)
        assert np.all(f.singular_values >= 0)
        scale = 1.0 + np.linalg.norm(A)
        assert np.linalg.norm(f.U.T @ f.U - np.eye(q)) <= 1e-10
        assert np.linalg.norm(f.V.T @ f.V - np.eye(q)) <= 1e-10
        assert np.linalg.norm(f.reconstruct() - A) <= 1e-10 * scale


def test_svd_round_trip_large():
    for m1, m2 in [(50, 20), (120, 80), (200, 200), (200, 60)]:
        A = RNG.standard_normal((m1, m2)) * 10
        f = svd(A)
        assert np.linalg.norm(f.reconstruct() - A) <= 1e-10 * (1 + np.linalg.norm(A))


def test_svd_sign_convention_deterministic():
    A = RNG.standard_normal((6, 4))
    f1, f2 = svd(A), svd(A.copy())
    assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V)
    for j in range(f1.singular_values.size):
        i = np.argmax(np.abs(f1.U[:, j]))
        assert f1.U[i, j] >= 0


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        svd(np.array([[np.inf]]))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norms_identity():
    n = 5
    r = norms(np.eye(n))
    assert r.nuclear == pytest.approx(n)
    assert r.spectral == pytest.approx(1.0)
    assert r.frobenius == pytest.approx(np.sqrt(n))
    assert r.max_abs_entry == 1.0


def test_norms_rank_one():
    u = RNG.standard_normal(6)
    v = RNG.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    r = norms(np.outer(u, v))
    for val in (r.nuclear, r.spectral, r.frobenius):
        assert val == pytest.approx(1.0)


def test_norms_via_determinant_trace_identities():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    r = norms(A)
    s1, s2 = gram_singular_values_2x2(A)
    assert r.nuclear == pytest.approx(s1 + s2, rel=1e-12)
    # sigma1 * sigma2 = |det|, sigma1^2 + sigma2^2 = ||A||_F^2
    assert r.spectral * (r.nuclear - r.spectral) == pytest.approx(2.0, rel=1e-10)
    assert r.frobenius**2 == pytest.approx(30.0)


def test_norms_ordering_property():
    for _ in range(100):
        A = random_matrix(RNG, scale=float(RNG.uniform(0.01, 20)))
        r = norms(A)
        q = min(A.shape)
        assert r.spectral <= r.frobenius + 1e-12
        assert r.frobenius <= r.nuclear + 1e-12
        assert r.nuclear <= np.sqrt(q) * r.frobenius + 1e-9


# ---------------------------------------------------------------------------
# weighted_frobenius
# ---------------------------------------------------------------------------

def test_weighted_frobenius_uniform_2x2():
    A = RNG.standard_normal((2, 2))
    P = np.full((2, 2), 0.25)
    assert weighted_frobenius(A, P) == pytest.approx(np.linalg.norm(A) / 2.0)


def test_weighted_frobenius_point_mass():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert weighted_frobenius(A, P) == pytest.approx(1.0)


def test_weighted_frobenius_matches_double_loop():
    A = RNG.standard_normal((3, 3))
    P = RNG.uniform(size=(3, 3))
    P /= P.sum()
    assert weighted_frobenius(A, P) == pytest.approx(
        weighted_frob_double_loop(A, P), abs=1e-12
    )


def test_weighted_frobenius_rejects_bad_weights():
    A = np.ones((2, 2))
    with pytest.raises(ValueError):
        weighted_frobenius(A, np.full((2, 3), 1 / 6))
    with pytest.raises(ValueError):
        weighted_frobenius(A, np.full((2, 2), 0.3))
    with pytest.raises(ValueError):
        weighted_frobenius(A, np.array([[1.5, -0.5], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# soft_threshold
# ---------------------------------------------------------------------------

def test_soft_threshold_zero_lambda_is_identity():
    A = RNG.standard_normal((4, 3))
    assert np.array_equal(linalg.soft_threshold(A, 0.0)[0], A)


def test_soft_threshold_full_shrinkage():
    A = RNG.standard_normal((4, 3))
    lam = np.linalg.svd(A, compute_uv=False)[0] + 0.1
    assert np.allclose(linalg.soft_threshold(A, lam)[0], 0.0)


def test_soft_threshold_diagonal():
    out, _ = linalg.soft_threshold(np.diag([3.0, 1.0]), 1.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_soft_threshold_rejects_negative():
    with pytest.raises(ValueError):
        linalg.soft_threshold(np.eye(2), -0.5)


def test_soft_threshold_nuclear_norm_identity():
    A = RNG.standard_normal((6, 5)) * 3
    lam = 0.7
    s = np.linalg.svd(A, compute_uv=False)
    out, _ = linalg.soft_threshold(A, lam)
    assert norms(out).nuclear == pytest.approx(
        np.maximum(s - lam, 0.0).sum(), abs=1e-9
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
def test_soft_threshold_nonexpansive(m1, m2, lam, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m1, m2)) * 2
    B = rng.standard_normal((m1, m2)) * 2
    dist = np.linalg.norm(
        linalg.soft_threshold(A, lam)[0] - linalg.soft_threshold(B, lam)[0]
    )
    assert dist <= np.linalg.norm(A - B) + 1e-9


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 12),
       st.sampled_from(["zero", "inside", "above"]), st.integers(0, 2**32 - 1))
def test_soft_threshold_returns_nuclear_norm_of_its_result(m1, m2, rank, where, seed):
    # The returned sum(max(sigma - lam, 0)) must be the nuclear norm of the
    # returned matrix as a fresh SVD measures it.
    rng = np.random.default_rng(seed)
    r = min(rank, m1, m2)
    A = 3.0 * rng.standard_normal((m1, r)) @ rng.standard_normal((r, m2))
    top = float(np.linalg.svd(A, compute_uv=False)[0])
    lam = {"zero": 0.0,
           "inside": float(rng.uniform(0.0, top)),
           "above": top * float(rng.uniform(1.01, 2.0)) + 1e-3}[where]
    S, nuclear = linalg.soft_threshold(A, lam)
    fresh = float(np.linalg.svd(S, compute_uv=False).sum())
    assert abs(nuclear - fresh) <= 1e-12 * fresh
    if where == "zero":
        assert np.array_equal(S, A)
    if where == "above":
        assert nuclear == 0.0 and not S.any()


def _low_rank(rng, m1, m2, r):
    return rng.standard_normal((m1, r)) @ rng.standard_normal((r, m2))


def _with_spectrum(rng, m1, m2, sv):
    # U diag(sv) V.T with U, V drawn from orthonormalized Gaussian matrices.
    U = np.linalg.qr(rng.standard_normal((m1, sv.size)))[0]
    V = np.linalg.qr(rng.standard_normal((m2, sv.size)))[0]
    return (U * sv) @ V.T


_BLOCKS = np.array([5.0, 3.0, 1.0, 0.5, 0.1])

_SHRINK_CASES = pytest.mark.parametrize("A", [
    np.random.default_rng(1).standard_normal((60, 30)),      # tall
    np.random.default_rng(2).standard_normal((30, 60)),      # wide
    _low_rank(np.random.default_rng(3), 40, 25, 4),           # rank-deficient
    _low_rank(np.random.default_rng(4), 9, 17, 2),            # wide, rank-deficient
    np.random.default_rng(5).standard_normal((91, 180)),     # a holdout frame
    np.random.default_rng(6).standard_normal((300, 150)),    # a full preset, tall
    # Each block value repeated q/5 = 3 times: "between" falls between the
    # blocks 5 and 3, "below" between the block 0.1 and zero.
    _with_spectrum(np.random.default_rng(7), 45, 15, np.repeat(_BLOCKS, 3)),
], ids=["tall", "wide", "rank-deficient", "wide-rank-deficient",
        "holdout-frame-91x180", "full-tall-300x150", "clustered"])


@_SHRINK_CASES
@pytest.mark.parametrize("where", ["above"])
def test_soft_threshold_bit_exact_against_sign_fixed_svd(A, where):
    # A threshold above the top singular value keeps no factor, so the
    # shrinkage from the sign-fixed factors of svd is the zero matrix and
    # soft_threshold must return it to the last bit, in either orientation.
    f = svd(A)
    lam = 1.5 * f.singular_values[0]
    keep = np.zeros(f.singular_values.shape, dtype=bool)
    expected = (f.U[:, keep] * f.singular_values[keep]) @ f.V[:, keep].T
    S, nuclear = linalg.soft_threshold(A, lam)
    assert np.array_equal(S, expected)
    assert nuclear == 0.0
    assert np.array_equal(linalg.soft_threshold(A.T, lam)[0], expected.T)


@_SHRINK_CASES
@pytest.mark.parametrize("where", ["below", "between", "1e-3", "1e-5"])
def test_soft_threshold_matches_sign_fixed_svd_shrinkage(A, where):
    # soft_threshold works through the Gram matrix of the short side, which
    # squares the conditioning; the small thresholds keep singular values
    # down to 1e-3 and 1e-5 of the largest, where that matters most.
    f = svd(A)
    sv = f.singular_values
    lam = {"below": 0.5 * sv[sv > 1e-8 * sv[0]][-1],
           "between": 0.5 * (sv[2] + sv[3]),
           "1e-3": 1e-3 * sv[0],
           "1e-5": 1e-5 * sv[0]}[where]
    shrunk = np.maximum(sv - lam, 0.0)
    keep = shrunk > 0.0
    expected = (f.U[:, keep] * shrunk[keep]) @ f.V[:, keep].T
    S, nuclear = linalg.soft_threshold(A, lam)
    assert np.linalg.norm(S - expected) <= 1e-12 * np.linalg.norm(expected)
    assert abs(nuclear - shrunk.sum()) <= 1e-12 * shrunk.sum()
    assert np.array_equal(linalg.soft_threshold(A.T, lam)[0], S.T)


@pytest.mark.parametrize("i", [10, 17, 26, 35])
def test_soft_threshold_splits_a_tight_cluster(i):
    # Blocks of 8 singular values within 1e-6 relative of 5, 3, 1, 0.5 and
    # 0.1; lam lies inside a block, midway between two of its values, so
    # about 1e-7 relative from either. The eigensolver then has to separate
    # nearly equal eigenvalues of the Gram matrix. (Inside the top block S
    # is about 1e-6 of A, and the full-SVD reference itself is then only
    # good to about 1e-9 relative.)
    sv = np.repeat(_BLOCKS, 8) * (1.0 + 1e-6 * np.tile(np.linspace(1.0, -1.0, 8), 5))
    A = _with_spectrum(np.random.default_rng(8), 40, 80, sv)
    lam = 0.5 * (sv[i] + sv[i + 1])
    f = svd(A)
    shrunk = np.maximum(f.singular_values - lam, 0.0)
    keep = shrunk > 0.0
    assert np.count_nonzero(keep) == i + 1
    expected = (f.U[:, keep] * shrunk[keep]) @ f.V[:, keep].T
    S, nuclear = linalg.soft_threshold(A, lam)
    assert np.linalg.norm(S - expected) <= 1e-12 * np.linalg.norm(expected)
    assert abs(nuclear - shrunk.sum()) <= 1e-12 * shrunk.sum()
    assert np.array_equal(linalg.soft_threshold(A.T, lam)[0], S.T)


@pytest.mark.parametrize("shape", [(30, 60), (60, 30), (91, 180)])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_soft_threshold_makes_one_svd_with_vectors(shape, scale, monkeypatch):
    # One hermitian np.linalg.svd of the Gram matrix per call, whatever is
    # kept (scale 2 is above the top singular value), and no direct eigh:
    # the benchmark counts np.linalg.svd calls with vectors as prox evaluations.
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(kwargs)
        return real_svd(*args, **kwargs)

    def no_eigh(*args, **kwargs):
        raise AssertionError("soft_threshold called np.linalg.eigh directly")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    A = np.random.default_rng(9).standard_normal(shape)
    lam = scale * float(real_svd(A, compute_uv=False)[0])
    linalg.soft_threshold(A, lam)
    assert len(calls) == 1
    assert calls[0].get("compute_uv", True) and calls[0].get("hermitian") is True


def test_soft_threshold_reduces_nuclear_norm():
    for _ in range(50):
        A = random_matrix(RNG, scale=3.0)
        lam = float(RNG.uniform(0, 2))
        before = norms(A)
        out, _ = linalg.soft_threshold(A, lam)
        survivors = int(np.sum(np.linalg.svd(A, compute_uv=False) > lam))
        after = 0.0 if not np.any(out) else norms(out).nuclear
        assert after <= before.nuclear - lam * survivors + 1e-9


# ---------------------------------------------------------------------------
# box projection: clamp_box over box_bounds, as the solver runs it
# ---------------------------------------------------------------------------

def _project(A, a, shift=None):
    return linalg.clamp_box(A, *linalg.box_bounds(a, shift))[0]


def test_project_box_interior_unchanged():
    A = np.array([[0.5, -1.0], [1.5, 0.0]])
    assert np.array_equal(_project(A, 2.0), A)


def test_project_box_clamps():
    assert _project(np.array([[5.0]]), 2.0) == pytest.approx(np.array([[2.0]]))


def test_project_box_shifted():
    out = _project(np.array([[0.0]]), 2.0, shift=np.array([[3.0]]))
    assert out == pytest.approx(np.array([[-1.0]]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0.1, 5.0),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_project_box_idempotent(m1, m2, a, with_shift, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m1, m2)) * 10
    shift = rng.standard_normal((m1, m2)) if with_shift else None
    once = _project(A, a, shift)
    twice = _project(once, a, shift)
    assert np.array_equal(once, twice)
    target = once if shift is None else once + shift
    assert np.max(np.abs(target)) <= a + 1e-12


@pytest.mark.parametrize("fn", [lambda A: linalg.soft_threshold(A, 0.5)],
                         ids=["soft_threshold"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_primitives_reject_non_finite_entries(fn, bad):
    A = RNG.standard_normal((4, 3))
    A[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fn(A)


def _box_case(rng, shape, a, with_shift, kinds):
    """(S, shift) for the box |S + shift| <= a, each entry of S drawn from
    kinds: 0 inside, 1 at -a, 2 at a, 3 one ulp below -a, 4 one ulp above a,
    5 far below -a (all in terms of S + shift)."""
    shift = rng.uniform(-a, a, shape) if with_shift else None
    lo, hi = (-a, a) if shift is None else (-a - shift, a - shift)
    lo, hi = np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
    choices = [lo + (hi - lo) * rng.uniform(0.01, 0.99, shape), lo, hi,
               np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
               lo - rng.uniform(1.0, 3.0, shape)]
    kind = rng.choice(kinds, shape)
    kind.flat[0] = max(kinds)
    return np.choose(kind, choices), shift


@pytest.mark.parametrize("shape", [(60, 30), (30, 60), (91, 180), (1, 7), (7, 1)])
@pytest.mark.parametrize("with_shift", [False, True])
@pytest.mark.parametrize("kinds", [[0], [0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5]],
                         ids=["inside", "at-bound", "one-ulp-out", "far-out"])
def test_clamp_box_matches_the_clip_and_equality_test(shape, with_shift, kinds):
    # The solver's box path (bounds once per solve, a range test, the clip
    # only when it fails) gives the entrywise clip to -a - shift <= S <= a -
    # shift to the last bit, and reports a clip exactly when np.array_equal
    # says the clip changed S.
    rng = np.random.default_rng([*shape, with_shift, len(kinds)])
    a = float(rng.uniform(0.5, 3.0))
    S, shift = _box_case(rng, shape, a, with_shift, kinds)
    expected = np.clip(S, -a, a) if shift is None else np.clip(S, -a - shift, a - shift)
    got, clipped = linalg.clamp_box(S, *linalg.box_bounds(a, shift))
    assert got.tobytes() == expected.tobytes()
    assert clipped == (not np.array_equal(expected, S))
    assert clipped == (max(kinds) > 2)


def test_clamp_box_counts_nan_as_clipped():
    S = np.array([[0.5, np.nan]])
    for lo, hi in [(-1.0, 1.0), (np.full((1, 2), -1.0), np.full((1, 2), 1.0))]:
        got, clipped = linalg.clamp_box(S, lo, hi)
        assert clipped and np.isnan(got[0, 1]) and got[0, 0] == 0.5


# ---------------------------------------------------------------------------
# project_rowcol
# ---------------------------------------------------------------------------

def test_project_rowcol_full_rank():
    A = RNG.standard_normal((4, 4)) + 4 * np.eye(4)
    B = RNG.standard_normal((4, 4))
    proj, perp = project_rowcol(A, B)
    assert np.allclose(proj, B, atol=1e-9)
    assert np.allclose(perp, 0.0, atol=1e-9)


def test_project_rowcol_zero_subspace():
    B = RNG.standard_normal((3, 5))
    proj, perp = project_rowcol(np.zeros((3, 5)), B)
    assert np.array_equal(proj, np.zeros((3, 5)))
    assert np.array_equal(perp, B)


def test_project_rowcol_rank_bound_rank1():
    u = RNG.standard_normal(4)
    v = RNG.standard_normal(3)
    A = np.outer(u, v)
    B = RNG.standard_normal((4, 3))
    proj, _ = project_rowcol(A, B)
    assert numerical_rank(proj) <= 2


def test_project_rowcol_decomposition_properties():
    for _ in range(60):
        m1, m2 = int(RNG.integers(2, 8)), int(RNG.integers(2, 8))
        r = int(RNG.integers(1, min(m1, m2) + 1))
        A = RNG.standard_normal((m1, r)) @ RNG.standard_normal((r, m2))
        B = RNG.standard_normal((m1, m2))
        proj, perp = project_rowcol(A, B)
        assert np.array_equal(proj + perp, B) or np.allclose(proj + perp, B, atol=1e-14)
        scale = max(1.0, np.linalg.norm(B) ** 2)
        assert abs(np.sum(proj * perp)) <= 1e-8 * scale
        assert numerical_rank(proj) <= 2 * numerical_rank(A)


def test_project_rowcol_shape_mismatch():
    with pytest.raises(ValueError):
        project_rowcol(np.eye(2), np.eye(3))
