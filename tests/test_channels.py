import numpy as np
import pytest

from epsim import channels as ch
from epsim import rand, verify
from epsim.errors import InvalidChoiError, PositivityError, ShapeError
from conftest import per_case_gaussian, random_kraus
from epsim.linalg import dagger, partial_trace
from epsim.rand import (
    density_from_gaussian,
    haar_unitary,
    kraus_count,
    kraus_from_unitary,
    random_density,
    random_duality_groups,
    unitary_from_gaussian,
)


def random_channel(rng, d_in, d_out, n_kraus):
    return ch.Channel(tuple(random_kraus(rng, d_in, d_out, n_kraus)))


def identity(d):
    return ch.Channel((np.eye(d),))


def recovered(kraus, d_in, d_out):
    """The channel read back from the Choi matrix of the Kraus set (k, d_out, d_in)."""
    choi = ch.kraus_to_choi(kraus)
    return ch.Channel(tuple(ch.choi_kraus(*ch.choi_eigh(choi, d_in, d_out), d_in, d_out)))


def test_identity_channel_apply():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 3)
    assert np.allclose(identity(3).apply(rho), rho)


def depolarizing_kraus(d):
    """Kraus set (d^2, d, d) of the completely depolarizing channel rho -> 1/d:
    every |i><j| / sqrt(d)."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d) / np.sqrt(d)


def test_depolarizing_apply():
    rng = np.random.default_rng(1)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(ch.kraus_apply(depolarizing_kraus(2), rho0), np.eye(2) / 2, atol=1e-12)
    rho = random_density(rng, 3)
    assert np.allclose(ch.kraus_apply(depolarizing_kraus(3), rho), np.eye(3) / 3, atol=1e-12)


def test_apply_matches_kraus_sum_oracle():
    rng = np.random.default_rng(2)
    phi = random_channel(rng, 3, 3, 3)
    rho = random_density(rng, 3)
    direct = sum(a @ rho @ dagger(a) for a in phi.kraus)
    assert np.allclose(phi.apply(rho), direct)


def test_non_trace_preserving_rejected():
    with pytest.raises(ShapeError, match="trace preserving"):
        ch.Channel((np.eye(2) * 0.5,))


def test_choi_of_identity_is_bell():
    omega = ch.kraus_to_choi(identity(2).stack)
    bell = ch.bell_vector(2)
    assert np.allclose(omega, np.outer(bell, bell.conj()))
    ch.choi_eigh(omega, 2, 2)


def test_choi_rank_counts_independent_kraus():
    rng = np.random.default_rng(21)
    for k in (1, 2, 3):
        phi = random_channel(rng, 3, 3, k)
        evals = np.linalg.eigvalsh(ch.kraus_to_choi(phi.stack))
        assert int(np.sum(evals > 1e-12)) == k


def test_choi_of_depolarizing_is_maximally_mixed():
    omega = ch.kraus_to_choi(depolarizing_kraus(2))
    assert np.allclose(omega, np.eye(4) / 4, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 4), (4, 4, 3)])
def test_duality_round_trip(dims):
    d_in, d_out, k = dims
    rng = np.random.default_rng(hash(dims) % 2**32)
    phi = random_channel(rng, d_in, d_out, k)
    back = recovered(phi.stack, d_in, d_out)
    for _ in range(10):
        rho = random_density(rng, d_in)
        assert np.max(np.abs(back.apply(rho) - phi.apply(rho))) < 1e-10


def test_from_choi_of_unitary_is_rank_one():
    rng = np.random.default_rng(5)
    u = haar_unitary(rng, 3)
    back = recovered(u[None], 3, 3)
    assert len(back.kraus) == 1
    phase = back.kraus[0][0, 0] / u[0, 0]
    assert np.allclose(back.kraus[0], phase * u, atol=1e-10)
    assert abs(abs(phase) - 1) < 1e-10


def test_from_choi_rejects_bad_marginal():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(InvalidChoiError):
        ch.choi_eigh(m, 2, 2)


def test_readout_identity():
    rng = np.random.default_rng(6)
    for d_in, d_out in [(2, 2), (3, 2), (2, 4), (4, 3)]:
        phi = random_channel(rng, d_in, d_out, 3)
        omega = ch.ChoiState(d_in, d_out, ch.kraus_to_choi(phi.stack))
        rho = random_density(rng, d_in)
        assert np.max(np.abs(omega.apply(rho) - phi.apply(rho))) < 1e-12
        sandwich = omega.matrix @ np.kron(np.eye(d_out), rho.T)
        by_kron = d_in * partial_trace(sandwich, [d_out, d_in], keep=[0])
        assert np.max(np.abs(omega.apply(rho) - by_kron)) < 1e-14


def test_readout_on_plus_state():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = np.outer(plus, plus.conj())
    omega = ch.ChoiState(2, 2, ch.kraus_to_choi(identity(2).stack))
    assert np.allclose(omega.apply(rho), rho)


def test_state_measurement_trivial_cases():
    d = 2
    m0, m1 = ch.measurement_roots(np.eye(d) / d)
    assert np.allclose(m0, np.eye(d) / np.sqrt(d))
    assert np.allclose(m1, np.sqrt(1 - 1 / d) * np.eye(d))
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    m0, m1 = ch.measurement_roots(rho0)
    assert np.allclose(m0, np.diag([1.0, 0.0]))
    assert np.allclose(m1, np.diag([0.0, 1.0]))


def test_measured_expectation_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        phi = random_channel(rng, d_in, d_out, int(rng.integers(1, 4)))
        rho = random_density(rng, d_in)
        a = rng.normal(size=(d_out, d_out)) + 1j * rng.normal(size=(d_out, d_out))
        obs = (a + dagger(a)) / 2
        probs, _, values = ch.measured_branches(phi.stack, rho, obs)
        target = np.trace(obs @ phi.apply(rho))
        assert abs(np.dot(probs, values) - target) < 1e-10
        # Each branch reconstruction is individually exact.
        for v in values:
            assert abs(v - target) < 1e-10
        assert abs(probs.sum() - 1) < 1e-10


def test_measured_branches_stack_matches_per_case_calls():
    rng = np.random.default_rng(35)
    kraus = random_stack(rng, 4, 3, 2, 2)
    rho = np.stack([random_density(rng, 3) for _ in range(4)])
    a = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    obs = (a + np.conj(np.swapaxes(a, -1, -2))) / 2
    probs, conds, values = ch.measured_branches(kraus, rho, obs)
    assert probs.shape == conds.shape == values.shape == (4, 2)
    for b in range(4):
        p, cond, v = ch.measured_branches(kraus[b], rho[b], obs[b])
        assert abs(np.dot(p, v) - np.dot(probs[b], values[b])) < 1e-14
        for k in range(2):
            assert abs(p[k] - probs[b, k]) < 1e-14
            assert abs(cond[k] - conds[b, k]) < 1e-14 and abs(v[k] - values[b, k]) < 1e-14
    bad = rho.copy()
    bad[2] = np.diag([1.2, -0.1, -0.1])
    with pytest.raises(ShapeError, match="^case 2: measurement_roots needs a density matrix"):
        ch.measured_branches(kraus, bad, obs)
    with pytest.raises(ShapeError, match="^measurement_roots needs a density matrix"):
        ch.measurement_roots(bad[2])
    # Inside the density tolerance but below the square root's clamp.
    slightly = np.diag([1 + 5e-9, -5e-9]).astype(complex)
    with pytest.raises(PositivityError, match="not PSD"):
        ch.measurement_roots(slightly)


def test_measurement_groups_draw_in_per_case_order():
    # The per-case loop of the binary-measurement check before it grouped.
    rng = np.random.default_rng(36)
    want = []
    for _ in range(30):
        d_in, d_out = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        kraus = random_kraus(rng, d_in, d_out, int(rng.integers(1, 4)))
        rho = random_density(rng, d_in)
        m = rng.normal(size=(d_out, d_out)) + 1j * rng.normal(size=(d_out, d_out))
        want.append((np.stack(kraus), rho, (m + dagger(m)) / 2))
    grouped = np.random.default_rng(36)
    seen = []
    for cases, kraus, rho, obs in verify._measurement_groups(grouped, 30):
        for b, case in enumerate(cases):
            ref = want[case]
            k = len(ref[0])
            np.testing.assert_allclose(kraus[b, :k], ref[0], rtol=0, atol=1e-13)
            assert not kraus[b, k:].any()  # the padding is exactly zero
            np.testing.assert_allclose(rho[b], ref[1], rtol=0, atol=1e-13)
            np.testing.assert_allclose(obs[b], ref[2], rtol=0, atol=1e-13)
            seen.append(case)
    assert sorted(seen) == list(range(30))
    assert grouped.random() == rng.random()


def test_stinespring_identity_and_unitary():
    u, anc = identity(2).stinespring()
    assert anc == 1 and np.allclose(u, np.eye(2))
    rng = np.random.default_rng(8)
    w = haar_unitary(rng, 3)
    u, anc = ch.Channel((w,)).stinespring()
    assert anc == 1 and np.allclose(u, w)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (2, 3, 3)])
def test_stinespring_dilation(dims):
    d_in, d_out, k = dims
    rng = np.random.default_rng(sum(dims))
    phi = random_channel(rng, d_in, d_out, k)
    u, anc = phi.stinespring()
    dim = u.shape[0]
    assert np.max(np.abs(dagger(u) @ u - np.eye(dim))) < 1e-10
    m_in = dim // d_in
    anc_in = np.zeros((m_in, m_in), dtype=complex)
    anc_in[0, 0] = 1.0
    for _ in range(10):
        rho = random_density(rng, d_in)
        big = u @ np.kron(rho, anc_in) @ dagger(u)
        out = partial_trace(big, [d_out, anc], keep=[0])
        assert np.max(np.abs(out - phi.apply(rho))) < 1e-10


def test_purified_choi():
    rng = np.random.default_rng(9)
    ident = identity(2).purified_choi()
    assert np.allclose(ident.vector, ch.bell_vector(2))
    phi = random_channel(rng, 3, 2, 3)
    pure = phi.purified_choi()
    assert abs(np.linalg.norm(pure.vector) - 1) < 1e-10
    assert np.max(np.abs(pure.choi_matrix() - ch.kraus_to_choi(phi.stack))) < 1e-10


def test_oqt_mixing_identity_is_exact():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        p = ch.oqt_channel(d)
        rho = random_density(rng, d)
        mixed = rho / d**2 + (d**2 - 1) / d**2 * p.apply(rho)
        assert np.max(np.abs(mixed - np.eye(d) / d)) < 1e-14
        # Closed form (d^2 Tr(rho) 1/d - rho) / (d^2 - 1), independent of the readout.
        direct = (d * np.trace(rho) * np.eye(d) - rho) / (d * d - 1)
        assert np.max(np.abs(p.apply(rho) - direct)) < 1e-12


def test_oqt_choi_is_psd():
    for d in (2, 3, 4):
        w = np.linalg.eigvalsh(ch.oqt_channel(d).matrix)
        assert w[0] >= -1e-12
        ch.choi_eigh(ch.oqt_channel(d).matrix, d, d)


def test_oqt_example_value():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    out = ch.oqt_channel(2).apply(rho0)
    assert np.allclose(out, np.diag([1.0 / 3.0, 2.0 / 3.0]), atol=1e-12)


def bell_effects(d):
    """{|omega><omega|, 1 - |omega><omega|}, the Bell measurement on a d x d pair;
    its operators are projectors, so they are their own effects."""
    p = np.outer(ch.bell_vector(d), ch.bell_vector(d).conj())
    return p, np.eye(d * d) - p


def test_bell_binary_measurement_probabilities():
    d = 2
    bell = ch.bell_vector(d)
    rho = np.outer(bell, bell.conj())
    e0, e1 = bell_effects(d)
    assert abs(np.trace(e0 @ rho) - 1) < 1e-12
    assert abs(np.trace(e1 @ rho)) < 1e-12
    mixed = np.eye(d * d) / d**2
    assert abs(np.trace(e0 @ mixed) - 1 / d**2) < 1e-12


def test_bell_teleportation_branches():
    # Bell-measuring a segment against a maximally entangled resource
    # conditions the passthrough on identity (outcome 0) or the OQT
    # correction channel (outcome 1).
    d = 2
    rng = np.random.default_rng(14)
    bell = ch.bell_vector(d)
    resource = np.outer(bell, bell.conj())
    p_map = ch.oqt_channel(d)
    for _ in range(5):
        rho = random_density(rng, d)
        joint = np.kron(rho, resource)  # X (x) (R (x) Y)
        for outcome, effect in enumerate(bell_effects(d)):
            big = np.kron(effect, np.eye(d))  # measure (X, R)
            post = partial_trace(big @ joint @ big, [d, d, d], keep=[2])
            p = np.real(np.trace(post))
            cond = post / p
            if outcome == 0:
                assert abs(p - 1 / d**2) < 1e-12
                assert np.max(np.abs(cond - rho)) < 1e-12
            else:
                assert abs(p - (1 - 1 / d**2)) < 1e-12
                assert np.max(np.abs(cond - p_map.apply(rho))) < 1e-12


def random_stack(rng, batch, d_in, d_out, n_kraus):
    return np.stack([np.stack(random_kraus(rng, d_in, d_out, n_kraus))
                     for _ in range(batch)])


# (d_in, d_out, n_kraus, batch); (3, 2, 1) and (4, 2, 1) raise the Kraus count.
@pytest.mark.parametrize("d_in,d_out,n_kraus,batch", [
    (2, 2, 1, 1), (3, 2, 1, 4), (4, 2, 1, 1), (2, 4, 2, 3), (4, 3, 3, 5), (3, 4, 2, 2),
])
def test_kernels_match_per_object_formulas(d_in, d_out, n_kraus, batch):
    rng = np.random.default_rng(100 * d_in + 10 * d_out + n_kraus)
    kraus = random_stack(rng, batch, d_in, d_out, n_kraus)
    assert kraus.shape == (batch, kraus_count(d_in, d_out, n_kraus), d_out, d_in)
    states = np.stack([random_density(rng, d_in) for _ in range(batch)])
    choi = ch.kraus_to_choi(kraus)
    back = ch.choi_kraus(*ch.choi_eigh(choi, d_in, d_out), d_in, d_out)
    applied = ch.kraus_apply(kraus, states)
    readout = ch.choi_apply(choi, states, d_in, d_out)
    recovered = ch.kraus_apply(back, states)
    for b in range(batch):
        mats, rho = list(kraus[b]), states[b]
        direct = sum(a @ rho @ dagger(a) for a in mats)
        assert np.max(np.abs(applied[b] - direct)) < 1e-12
        vecs = np.stack([a.reshape(-1) for a in mats], axis=1) / np.sqrt(d_in)
        omega = vecs @ dagger(vecs)
        assert np.max(np.abs(choi[b] - omega)) < 1e-12
        sandwich = omega @ np.kron(np.eye(d_out), rho.T)
        by_kron = d_in * partial_trace(sandwich, [d_out, d_in], keep=[0])
        assert np.max(np.abs(readout[b] - by_kron)) < 1e-12
        lam, vec = np.linalg.eigh(omega)
        ref = [np.sqrt(d_in * x) * v.reshape(d_out, d_in) for x, v in zip(lam, vec.T) if x > 1e-12]
        assert len(ref) == kraus.shape[1]
        assert np.max(np.abs(recovered[b] - sum(a @ rho @ dagger(a) for a in ref))) < 1e-12
    worst_readout, worst_roundtrip = ch.duality_residuals(kraus, states[:, None])
    assert worst_readout.shape == worst_roundtrip.shape == (batch, 1)
    assert np.max(worst_readout) < 1e-12 and np.max(worst_roundtrip) < 1e-12


def test_choi_kraus_pads_cases_of_lower_rank_with_zeros():
    rng = np.random.default_rng(31)
    full = np.stack(random_kraus(rng, 2, 2, 3))
    unitary = np.stack([haar_unitary(rng, 2), np.zeros((2, 2)), np.zeros((2, 2))])
    kraus = np.stack([full, unitary])
    choi = ch.kraus_to_choi(kraus)
    back = ch.choi_kraus(*ch.choi_eigh(choi, 2, 2), 2, 2)
    assert back.shape == (2, 3, 2, 2)
    assert np.all(back[1, :2] == 0)
    assert len(ch.choi_kraus(*ch.choi_eigh(choi[1], 2, 2), 2, 2)) == 1
    rho = random_density(rng, 2)
    assert np.max(np.abs(ch.kraus_apply(back, rho) - ch.kraus_apply(kraus, rho))) < 1e-12


def test_batched_checks_name_the_failing_case():
    rng = np.random.default_rng(32)
    kraus = random_stack(rng, 3, 2, 2, 2)
    states = np.stack([random_density(rng, 2) for _ in range(3)])[:, None]
    bad = kraus.copy()
    bad[1] *= 1.1
    with pytest.raises(ShapeError, match="^case 1: Kraus operators are not trace preserving"):
        ch.kraus_tp_check(bad)
    with pytest.raises(ShapeError, match="^case 8: Kraus operators are not trace preserving"):
        ch.duality_residuals(bad, states, cases=[7, 8, 9])
    with pytest.raises(ShapeError, match="^Kraus operators are not trace preserving"):
        ch.Channel(tuple(bad[1]))
    # Same trace and input marginal, but the rank-two Choi matrix's zero
    # eigenvalues move to -0.025.
    choi = ch.kraus_to_choi(kraus)
    choi[2] = 1.1 * choi[2] - 0.1 * np.eye(4) / 4
    with pytest.raises(InvalidChoiError, match="^case 2: Choi matrix is not PSD"):
        ch.choi_eigh(choi, 2, 2)
    with pytest.raises(InvalidChoiError, match="^case 9: Choi matrix is not PSD"):
        ch.choi_eigh(choi, 2, 2, cases=[7, 8, 9])
    with pytest.raises(InvalidChoiError, match="^Choi matrix is not PSD"):
        ch.choi_eigh(choi[2], 2, 2)


@pytest.mark.parametrize("chunk", [7, 512])
def test_duality_groups_draw_in_per_case_order(monkeypatch, chunk):
    monkeypatch.setattr(rand, "_GROUP_CHUNK", chunk)
    seed = 34
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(40):
        d_in, d_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        kraus = random_kraus(rng, d_in, d_out, int(rng.integers(1, 4)))
        want.append((kraus, [random_density(rng, d_in) for _ in range(3)]))
    seen = []
    for cases, kraus, states in random_duality_groups(seed, 40, 4, 3):
        for b, case in enumerate(cases):
            ref_kraus, ref_states = want[case]
            k = len(ref_kraus)
            np.testing.assert_allclose(kraus[b, :k], np.stack(ref_kraus), rtol=0, atol=1e-13)
            assert not kraus[b, k:].any()  # the padding is exactly zero
            np.testing.assert_allclose(states[b], np.stack(ref_states), rtol=0, atol=1e-13)
            seen.append(case)
    assert sorted(seen) == list(range(40))


@pytest.mark.parametrize("shape", [(3,), (4, 4), (2, 3, 5)])
def test_fused_gaussian_draws_match_per_case_draws(shape):
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    assert np.array_equal(rand.gaussian(rng, shape), per_case_gaussian(ref, shape))
    got = rand.gaussians(rng, 5, shape)
    assert np.array_equal(got, np.stack([per_case_gaussian(ref, shape) for _ in range(5)]))
    v = per_case_gaussian(ref, (16,))
    assert np.array_equal(rand.random_state(rng, 16), v / np.linalg.norm(v))
    assert rng.normal() == ref.normal()


@pytest.mark.parametrize("chunk", [7, 512])
def test_duality_group_draws_match_per_case_loop(monkeypatch, chunk):
    monkeypatch.setattr(rand, "_GROUP_CHUNK", chunk)
    rng = np.random.default_rng(35)
    keys, draws = [], []
    for _ in range(40):
        d_in, d_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        k = kraus_count(d_in, d_out, int(rng.integers(1, 4)))
        z = per_case_gaussian(rng, (d_out * k,) * 2)
        keys.append((d_in, d_out, k))
        draws.append((z, np.stack([per_case_gaussian(rng, (d_in, d_in)) for _ in range(3)])))
    grouped = np.random.default_rng(35)
    seen, padded = [], 0
    for cases, kraus, states in random_duality_groups(grouped, 40, 4, 3):
        assert cases == sorted(cases)
        assert len({keys[c][:2] for c in cases}) == 1  # one stack per (d_in, d_out)
        assert kraus.shape[1] == max(keys[c][2] for c in cases)
        for b, case in enumerate(cases):
            d_in, d_out, k = keys[case]
            z, a = draws[case]
            own = kraus_from_unitary(unitary_from_gaussian(z[None]), d_in, d_out)[0]
            assert np.array_equal(kraus[b, :k], own)
            assert np.array_equal(kraus[b, k:], np.zeros_like(kraus[b, k:]))
            assert np.array_equal(states[b], density_from_gaussian(a))
            padded += k < kraus.shape[1]
        seen += cases
    assert sorted(seen) == list(range(40))
    assert padded  # some stack mixes Kraus counts
    assert grouped.random() == rng.random()


def test_padded_duality_stack_names_the_invalid_case():
    for cases, kraus, states in random_duality_groups(35, 40, 4, 3):
        ks = np.any(kraus != 0, axis=(-2, -1)).sum(axis=-1)
        if len(set(ks)) > 1:
            break
    b = int(np.flatnonzero(ks < kraus.shape[1])[-1])  # a padded case, not the first
    assert b > 0
    readout, roundtrip = ch.duality_residuals(kraus, states, cases)
    assert max(readout.max(), roundtrip.max()) < 1e-12
    bad = kraus.copy()
    bad[b] *= 1.1
    with pytest.raises(ShapeError, match=f"^case {cases[b]}: Kraus operators are not trace"):
        ch.duality_residuals(bad, states, cases)
