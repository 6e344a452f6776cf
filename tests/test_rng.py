import numpy as np
from hypothesis import given, settings, strategies as st

from geodp import rng


def test_pure_function_of_indices():
    a = rng.standard_normal(7, 3, 11, 0)
    b = rng.standard_normal(7, 3, 11, 0)
    assert a == b
    # distinct indices give distinct draws
    assert rng.standard_normal(7, 3, 12, 0) != a
    assert rng.standard_normal(8, 3, 11, 0) != a


def test_increments_shape_and_scale():
    dt = 1.0 / 64
    z = rng.normal_increments(1, 64, 4096, 2, dt)
    assert z.shape == (64, 4096, 2)
    # marginal moments of N(0, dt)
    assert abs(np.mean(z)) < 4.0 * np.sqrt(dt / z.size)
    assert abs(np.var(z) - dt) < 5e-4
    # no wild tails / NaNs
    assert np.all(np.isfinite(z))
    assert np.max(np.abs(z)) < 8.0 * np.sqrt(dt)


def test_antithetic_pairing():
    z = rng.normal_increments(42, 8, 64, 3, 0.25, antithetic=True)
    np.testing.assert_allclose(z[:, 1::2], -z[:, 0::2])
    # even paths reproduce the base stream of half the size
    base = rng.normal_increments(42, 8, 32, 3, 0.25)
    np.testing.assert_allclose(z[:, 0::2], base)


def test_partition_independence():
    """Each draw depends only on its own index, not on array extents."""
    big = rng.normal_increments(5, 16, 100, 2, 0.1)
    small = rng.normal_increments(5, 16, 60, 2, 0.1)
    np.testing.assert_array_equal(big[:, :60], small)


def test_derive_seed_deterministic_and_spread():
    s1 = rng.derive_seed(12345, 0)
    s2 = rng.derive_seed(12345, 1)
    assert s1 == rng.derive_seed(12345, 0)
    assert s1 != s2
    assert rng.derive_seed(12345, 0, 1) != rng.derive_seed(12345, 1, 0)


def test_normality_rough():
    z = rng.normal_increments(9, 1, 200_000, 1, 1.0)[0, :, 0]
    # skewness and excess kurtosis near 0 at this sample size
    assert abs(np.mean(z**3)) < 0.05
    assert abs(np.mean(z**4) - 3.0) < 0.1


# Reference: the full-broadcast hashing, in which every index array is first
# broadcast to the output shape and each stage hashes the whole shape.
def _reference_standard_normal(seed, step, path, comp):
    step, path, comp = np.broadcast_arrays(
        np.asarray(step, dtype=np.uint64),
        np.asarray(path, dtype=np.uint64),
        np.asarray(comp, dtype=np.uint64),
    )
    h = rng._splitmix64(np.asarray(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
    for index in (step, path, comp):
        h = rng._splitmix64(h ^ index)
    u1 = rng._to_unit(h)
    u2 = rng._to_unit(rng._splitmix64(h ^ rng._GOLDEN))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _reference_increments(seed, n_steps, n_paths, d, dt, antithetic, path_offset):
    steps = np.arange(n_steps, dtype=np.uint64)[:, None, None]
    comps = np.arange(d, dtype=np.uint64)[None, None, :]
    paths = np.arange(path_offset, path_offset + n_paths, dtype=np.uint64)[None, :, None]
    if antithetic:
        base = _reference_standard_normal(seed, steps, paths >> np.uint64(1), comps)
        z = base * np.where(paths % np.uint64(2) == 0, 1.0, -1.0)
    else:
        z = _reference_standard_normal(seed, steps, paths, comps)
    return z * np.sqrt(dt)


_SEEDS = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    n_steps=st.integers(0, 6),
    n_paths=st.integers(0, 40),
    d=st.integers(1, 4),
    dt=st.floats(1e-4, 1.0),
    antithetic=st.booleans(),
    path_offset=st.integers(0, 2**40),
)
def test_increments_equal_full_broadcast_reference(seed, n_steps, n_paths, d, dt, antithetic, path_offset):
    """Hashing each index over its own axes is bit-equal to the full broadcast."""
    got = rng.normal_increments(seed, n_steps, n_paths, d, dt, antithetic=antithetic, path_offset=path_offset)
    want = _reference_increments(seed, n_steps, n_paths, d, dt, antithetic, path_offset)
    assert got.shape == want.shape == (n_steps, n_paths, d)
    np.testing.assert_array_equal(got, want)


def _index(draw, sizes):
    """A scalar index, or an index array that varies along one axis only."""
    if draw(st.booleans()):
        return draw(st.integers(0, 2**32))
    axis = draw(st.integers(0, len(sizes) - 1))
    shape = [1] * len(sizes)
    shape[axis] = sizes[axis]
    start = draw(st.integers(0, 2**32))
    return np.arange(start, start + sizes[axis], dtype=np.uint64).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3), data=st.data())
def test_standard_normal_equals_full_broadcast_reference(seed, sizes, data):
    step, path, comp = (_index(data.draw, sizes) for _ in range(3))
    got = rng.standard_normal(seed, step, path, comp)
    want = _reference_standard_normal(seed, step, path, comp)
    assert np.shape(got) == want.shape
    np.testing.assert_array_equal(got, want)
