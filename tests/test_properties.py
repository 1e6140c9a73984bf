"""Property tests on every kind up to the top ranks, standard and rotated frames.

The scalar triangular decomposition and principal minors are one-row calls of
the batched code; these tests hold them to their rows of a stacked batch, to
the matrix leading minors, to the triangular roundtrip t_x e = x and to the
identity Delta_k(x) = alpha_1 ... alpha_k between the minors and the
triangular diagonal (Faraut & Korányi 1994, ch. VI).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conelab import algebra as alg
from conelab import peirce, triangular as tri

KINDS = (
    [alg.sym_real(r) for r in range(2, 9)]
    + [alg.herm_complex(r) for r in range(2, 7)]
    + [alg.lorentz(n) for n in range(3, 17)]
)

# derandomized: every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=5)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def frame_and_points(a, rotated, seed, n=3):
    """The standard frame of a, or its image under a random automorphism, and n cone points."""
    rng = np.random.default_rng(seed)
    frame = alg.standard_frame(a)
    if rotated:
        rot = alg.random_automorphism_k(a, rng)
        frame = alg.JordanFrame(tuple(rot.apply(c) for c in frame))
    xs = [alg.random_cone_element(a, rng, 0.1, 10.0) for _ in range(n)]
    return frame, xs, np.array([x.coords for x in xs])


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_one_row_decompose_matches_batch_and_roundtrips(a, rotated, seed):
    frame, xs, coords = frame_and_points(a, rotated, seed)
    batch = tri.batch_triangular_decompose(coords, frame)
    e = alg.identity(a)
    for i, x in enumerate(xs):
        t = tri.triangular_decompose(x, frame)
        assert_allclose(t.diagonal, batch.diagonal[i], rtol=1e-12)
        for z, z_batch in zip(t.frobenius_params, batch.frobenius_params):
            assert_allclose(z.coords, z_batch[i], rtol=1e-12, atol=1e-12)
        te = tri.as_endomorphism(t).apply(e)
        assert alg.norm(te - x) <= 1e-9 * alg.norm(x)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("a", KINDS, ids=lambda a: a.name)
@PROPERTY
@given(seed=SEEDS)
def test_minors_are_rows_of_the_batch_and_products_of_the_diagonal(a, rotated, seed):
    frame, xs, coords = frame_and_points(a, rotated, seed)
    minors = peirce.principal_minors(frame, coords)
    alphas = tri.batch_triangular_decompose(coords, frame).diagonal
    assert_allclose(minors, np.cumprod(alphas, axis=1), rtol=1e-10)
    for i, x in enumerate(xs):
        for k in range(1, a.rank + 1):
            got = peirce.principal_minor(x, k, frame)
            assert got == pytest.approx(minors[i, k - 1], rel=1e-12)
            if a.kind == alg.SYM_REAL and not rotated:
                want = np.linalg.det(x.to_matrix()[:k, :k])
                assert got == pytest.approx(want, rel=1e-9)
