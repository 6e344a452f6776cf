from unittest import mock

import numpy as np
import pytest
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


@settings(max_examples=80, deadline=None)
@given(
    block=st.integers(1, 64),
    seed=_SEEDS,
    n_steps=st.integers(0, 9),
    n_paths=st.integers(0, 24),
    d=st.integers(1, 3),
    antithetic=st.booleans(),
    path_offset=st.integers(0, 2**40),
)
def test_blocked_increments_equal_one_shot_reference(block, seed, n_steps, n_paths, d, antithetic, path_offset):
    """The rows are generated in blocks of whole steps; for any block size the
    result is the one-shot array bit for bit, whether a step holds fewer or
    more normals than a block and whether or not the block rows divide n_steps."""
    with mock.patch.object(rng, "_BLOCK_NORMALS", block):
        got = rng.normal_increments(seed, n_steps, n_paths, d, 0.03, antithetic=antithetic, path_offset=path_offset)
    want = _reference_increments(seed, n_steps, n_paths, d, 0.03, antithetic, path_offset)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
@pytest.mark.parametrize(
    "n_steps, n_paths, d, path_offset",
    [
        (200, 100, 2, 7),  # 81 steps per block: blocks of 81, 81 and 38 steps
        (3, 6001, 3, 1),  # one step holds more normals than a block
        (64, 2048, 1, 2049),  # the 8-step blocks of a simulate chunk
    ],
)
def test_blocked_increments_at_the_block_size(n_steps, n_paths, d, path_offset, antithetic):
    got = rng.normal_increments(11, n_steps, n_paths, d, 0.01, antithetic=antithetic, path_offset=path_offset)
    want = _reference_increments(11, n_steps, n_paths, d, 0.01, antithetic, path_offset)
    np.testing.assert_array_equal(got, want)


def _antithetic_reference(seed, n_steps, n_paths, d, dt, path_offset):
    """standard_normal(seed, step, path >> 1, comp) * (+1 on even, -1 on odd
    absolute paths) * sqrt(dt), for every (step, path, comp)."""
    paths = np.arange(path_offset, path_offset + n_paths, dtype=np.uint64)
    z = rng.standard_normal(
        seed,
        np.arange(n_steps, dtype=np.uint64)[:, None, None],
        (paths >> np.uint64(1))[None, :, None],
        np.arange(d, dtype=np.uint64)[None, None, :],
    )
    sign = np.where(paths % np.uint64(2) == 0, 1.0, -1.0)[None, :, None]
    return z * sign * np.sqrt(dt)


@pytest.mark.parametrize("n_paths", [1, 2, 3, 7, 4096, 4097])
@pytest.mark.parametrize("path_offset", [0, 1, 2, 5])
def test_antithetic_pairs_hashed_once_equal_the_signed_draws(path_offset, n_paths):
    """Each pair is hashed once and written to its two paths: element by
    element, the signed draw of its pair, for either parity of the offset, an
    odd path count, d = 1-3 and step counts that cross a block boundary (9
    steps at the default block size reach the 8 or 7 steps per block of 2048
    or 2049 pairs; a 4-normal block crosses on every step)."""
    for d in (1, 2, 3):
        want = _antithetic_reference(77, 9, n_paths, d, 0.02, path_offset)
        for block in (rng._BLOCK_NORMALS, 4):
            with mock.patch.object(rng, "_BLOCK_NORMALS", block):
                got = rng.normal_increments(77, 9, n_paths, d, 0.02, antithetic=True, path_offset=path_offset)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("p0, p1", [(1, 2), (3, 10), (5, 4097)])
def test_antithetic_block_at_an_odd_start(p0, p1):
    """``BrownianGrid.block(p0, p1)`` at an odd p0 starts on the odd path of a
    pair: its increments are the full grid's columns [p0, p1) bit for bit."""
    from geodp.dynamics import BrownianGrid, TimeGrid

    noise = BrownianGrid(grid=TimeGrid(0.0, 1.0, 9), d=2, n_paths=4097, seed=5, antithetic=True)
    block = noise.block(p0, p1).increments
    np.testing.assert_array_equal(block, noise.increments[:, p0:p1])
    np.testing.assert_array_equal(block, _antithetic_reference(5, 9, 4097, 2, 1.0 / 9, 0)[:, p0:p1])
