import numpy as np
import pytest

from epsim import linalg
from epsim.errors import ShapeError
from epsim.rand import random_density
from conftest import bitwise_equal, kron_embed

SZ = np.diag([1.0, -1.0]).astype(complex)


def test_svd_identity():
    u, s, vh = linalg.svd(np.eye(2, dtype=complex))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_rank_one():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    _, s, _ = linalg.svd(np.outer(a, b.conj()))
    assert np.allclose(s, [1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_svd_reconstruction(n):
    rng = np.random.default_rng(7 + n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, s, vh = linalg.svd(m)
    assert np.all(np.diff(s) <= 1e-12)
    resid = np.max(np.abs(u @ np.diag(s) @ vh - m))
    assert resid < 1e-12 * max(1.0, np.linalg.norm(m))


def test_matrix_exp_zero_and_pauli():
    assert np.allclose(linalg.matrix_exp(np.zeros((3, 3))), np.eye(3))
    u = linalg.matrix_exp(SZ, scalar=-1j * np.pi / 2)
    assert np.allclose(u, np.diag([-1j, 1j]))


def test_matrix_exp_unitarity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + linalg.dagger(a)) / 2
    u = linalg.matrix_exp(h, scalar=-0.3j)
    defect = np.max(np.abs(linalg.dagger(u) @ u - np.eye(4)))
    assert defect < 1e-12


def test_matrix_exp_refuses_non_hermitian():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(ShapeError, match="Hermitian"):
        linalg.matrix_exp(m, 0.7)
    with pytest.raises(ShapeError, match="Hermitian"):
        linalg.matrix_exp(np.zeros((2, 3)))


def test_partial_trace_product():
    rng = np.random.default_rng(13)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    full = np.kron(a, b)
    assert np.allclose(linalg.partial_trace(full, [2, 3], keep=[0]), a)
    assert np.allclose(linalg.partial_trace(full, [2, 3], keep=[1]), b)


def test_embed_operator_places_factors():
    sz = SZ
    full = linalg.embed_operator(sz, [1], [2, 2, 2])
    assert np.allclose(full, np.kron(np.eye(2), np.kron(sz, np.eye(2))))
    two = linalg.embed_operator(np.kron(sz, sz), [0, 2], [2, 2, 2])
    expect = np.kron(sz, np.kron(np.eye(2), sz))
    assert np.allclose(two, expect)


EMBED_CASES = [
    ([2, 2, 2], [1]),
    ([2, 2, 2, 2], [0, 2]),  # non-contiguous
    ([2, 2, 2, 2], [3, 1]),  # unsorted
    ([2, 2, 2, 2, 2], [4, 0, 2]),
    ([3, 2, 4], [2, 0]),  # mixed site dims
    ([2, 3, 2, 3], [3, 0]),
    ([3, 1, 2], [1]),  # a one-dimensional site
    ([2, 3], []),  # a scalar times the identity
    ([2, 2, 3], [0, 1, 2]),
]


@pytest.mark.parametrize("dims, support", EMBED_CASES)
def test_embed_operator_matches_kron_reference(dims, support):
    rng = np.random.default_rng(len(dims) + 7 * len(support))
    size = int(np.prod([dims[s] for s in support]))
    op = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    got = linalg.embed_operator(op, support, dims)
    want = kron_embed(op, support, dims)
    assert np.array_equal(got, want)
    # The kron writes -0.0 where a negative entry meets the identity's zeros;
    # the embedding writes only the support's entries into zeros, so its
    # signs are those of the reference added onto zeros.
    assert bitwise_equal(got, np.zeros_like(want) + want)
    out = rng.normal(size=got.shape) + 1j * rng.normal(size=got.shape)
    want_sum = out + want
    linalg._add_embedded(out, op, support, dims)
    assert bitwise_equal(out, want_sum)


@pytest.mark.parametrize("size, support, text", [
    (4, [1, 1], r"^support \[1, 1\] must list distinct sites of 0..2$"),
    (4, [0, 3], r"^support \[0, 3\] must list distinct sites of 0..2$"),
    (2, [-1], r"^support \[-1\] must list distinct sites of 0..2$"),
    (3, [0], r"^operator shape \(3, 3\) does not match support dims \[2\]$"),
])
def test_embed_operator_refuses_bad_supports(size, support, text):
    with pytest.raises(ShapeError, match=text):
        linalg.embed_operator(np.eye(size), support, [2, 2, 2])
