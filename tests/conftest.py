import numpy as np
import pytest

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@pytest.fixture
def pauli():
    return PAULI


def random_kraus(rng, d_in, d_out, n_kraus):
    """Kraus operators (k, d_out, d_in) of a random channel: the first d_in
    columns of a Haar unitary on C^{d_out k}, with k raised by kraus_count."""
    from epsim.rand import haar_unitary, kraus_count, kraus_from_unitary

    u = haar_unitary(rng, d_out * kraus_count(d_in, d_out, n_kraus))
    return kraus_from_unitary(u, d_in, d_out)


def per_case_gaussian(rng, shape):
    """A complex Gaussian array as two separate draws, real parts first: the
    per-call reference for the fused draws of ``epsim.rand``."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def kron_embed(op, support, dims):
    """The kron-and-transpose embedding: op (x) 1 on (support, rest), then
    the factors permuted back to site order."""
    n = len(dims)
    rest = [i for i in range(n) if i not in support]
    t = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest]))))
    order = list(support) + rest
    t = t.reshape([dims[i] for i in order] * 2)
    perm = [order.index(i) for i in range(n)]
    full = int(np.prod(dims))
    return t.transpose(perm + [p + n for p in perm]).reshape(full, full)


def bitwise_equal(a, b):
    """Equal entries, and equal sign bits on both parts, so -0.0 != 0.0."""
    return (np.array_equal(a, b)
            and all(np.array_equal(np.signbit(f(a)), np.signbit(f(b))) for f in (np.real, np.imag)))


def dense_expectation(psi, ops, dims):
    """Brute-force <psi| (x)_n O_n |psi> with identities at unlisted sites."""
    from epsim.linalg import embed_operator

    full = np.eye(int(np.prod(dims)), dtype=complex)
    for site, op in ops.items():
        full = full @ embed_operator(np.asarray(op, dtype=complex), [site], dims)
    return np.conj(psi) @ full @ psi
