import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kleinsail import linalg
from kleinsail.linalg import (
    affine_rank, det, lll_reduce, mat_inverse, mat_mul, mat_vec, primitive_int_vector,
    solve, subset_det_sum, unimodular_completion,
)


def rand_matrix(rng, n, denom=20):
    while True:
        m = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, denom)) for _ in range(n))
             for _ in range(n)]
        if det(m) != 0:
            return m


def test_det_small_cases():
    assert det([(Fraction(2),)]) == 2
    assert det([(1, 2), (3, 4)]) == -2
    assert det([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert det([(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]) == -1


def test_solve_and_inverse_roundtrip():
    rng = random.Random(7)
    for n in (2, 3, 4):
        m = rand_matrix(rng, n)
        inv = mat_inverse(m)
        prod = mat_mul(m, inv)
        assert prod == linalg.identity(n)
        rhs = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        x = solve(m, rhs)
        assert mat_vec(m, x) == rhs


def test_int_matrices_invert_exactly():
    m = [(0, 1, -1), (-9, 26, 2), (10, -29, -2)]
    inv = mat_inverse(m)
    assert all(isinstance(x, (int, Fraction)) for row in inv for x in row)
    assert mat_mul(m, inv) == linalg.identity(3)
    x = solve(m, (1, 0, 0))
    assert all(isinstance(v, (int, Fraction)) for v in x)
    assert mat_vec(m, x) == (1, 0, 0)


def test_singular_solve_raises():
    with pytest.raises(ZeroDivisionError):
        solve([(1, 2), (2, 4)], (1, 1))


@given(st.lists(st.integers(-40, 40), min_size=3, max_size=3),
       st.integers(1, 50))
def test_primitive_vector_gcd_one(v, scale):
    if all(x == 0 for x in v):
        return
    p = primitive_int_vector(tuple(x * scale for x in v))
    from math import gcd
    g = 0
    for x in p:
        g = gcd(g, abs(x))
    assert g == 1


def test_affine_rank():
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_rank([(0, 0, 0), (1, 1, 1), (2, 2, 2)]) == 1
    assert affine_rank([(5, 5)]) == 0
    assert affine_rank([]) == -1


def test_subset_det_sum_hexagon():
    # segments to e1, e2, e1+e2 span a hexagon of area 3
    assert subset_det_sum([(1, 0), (0, 1), (1, 1)], 2) == 3


def test_subset_det_sum_cap():
    vecs = [(1, 0)] * 30
    with pytest.raises(ValueError):
        subset_det_sum(vecs, 2)
    with pytest.raises(ValueError):
        subset_det_sum([(1, 0)], 2)


def test_unimodular_completion():
    rng = random.Random(5)
    vectors = [(0, 1), (1, 0), (0, -1), (3, 5), (0, 0, -1), (2, 3, 5)]
    while len(vectors) < 200:
        v = tuple(rng.randint(-40, 40) for _ in range(rng.choice((2, 3))))
        if any(v):
            vectors.append(primitive_int_vector(v))
    for v in vectors:
        u, u_inv = unimodular_completion(v)
        n = len(v)
        assert tuple(row[-1] for row in u) == tuple(v)
        assert abs(det(u)) == 1
        assert mat_mul(u, u_inv) == [tuple(int(i == j) for j in range(n)) for i in range(n)]
    with pytest.raises(ValueError):
        unimodular_completion((2, 4))


@pytest.mark.parametrize("seed", range(20))
def test_lll_reduce_gives_a_reduced_unimodular_basis(seed):
    rng = random.Random(seed)
    n = 2 + seed % 2
    while True:
        vecs = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
        if det([[Fraction(x) for x in v] for v in vecs]):
            break
    if seed % 4 == 3:  # rational entries, as the box metric gives them
        vecs = [[Fraction(x, rng.randint(1, 99)) for x in v] for v in vecs]
    u, u_inv = lll_reduce(vecs)
    assert mat_mul(u, u_inv) == [tuple(int(i == j) for j in range(n)) for i in range(n)]
    b = [[sum(u[j][k] * vecs[j][i] for j in range(n)) for i in range(n)] for k in range(n)]
    star, norm = [], []
    for k in range(n):  # Gram-Schmidt: size-reduced, and the Lovasz condition
        v = [Fraction(x) for x in b[k]]
        for j in range(k):
            mu = sum(x * y for x, y in zip(b[k], star[j])) / norm[j]
            assert abs(mu) <= Fraction(1, 2)
            v = [x - mu * y for x, y in zip(v, star[j])]
            if j == k - 1:
                assert norm[k - 1] * (Fraction(3, 4) - mu ** 2) <= sum(x * x for x in v)
        star.append(v)
        norm.append(sum(x * x for x in v))
