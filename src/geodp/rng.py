"""Counter-based normal variates.

Every increment is a pure function of (seed, step, path, component), so paired
simulations can share noise exactly (common random numbers) and results do not
depend on how the paths are partitioned into chunks.  ``normal_increments``
takes a path offset, so the increments of any block of paths can be generated
on their own, where they are used, and equal the matching slice of the full
array bit for bit.

The generator hashes the four indices with the splitmix64 finalizer and feeds
two 53-bit uniforms into a Box-Muller transform.  This is not a
cryptographic generator; it is a reproducibility device.

``normal_increments`` fills its (n_steps, n_paths, d) result in blocks of
whole steps of about ``_BLOCK_NORMALS`` normals (at least one step), so the
uint64 temporaries of the hashing stay in cache instead of spanning the whole
array.  Each number is still a pure function of its indices, so the block
size does not change a bit of the result.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Normals per block of whole steps in normal_increments: 2^14 float64s are
# 128 KB, so a block's hashing temporaries fit in L2.
_BLOCK_NORMALS = 1 << 14


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer on uint64 arrays (modular arithmetic)."""
    with np.errstate(over="ignore"):
        z = z + _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def _hash_indices(seed: int, step, path, comp) -> np.ndarray:
    """Combine (seed, step, path, comp) into one well-mixed uint64 per element.

    Each stage is hashed over the shape it has reached so far: the seed as a
    scalar, then the step over the step's axes, and so on; the index arrays
    broadcast against each other only where they are mixed in.
    """
    s = np.uint64(np.int64(seed).view(np.uint64) if isinstance(seed, np.int64) else seed & 0xFFFFFFFFFFFFFFFF)
    h = _splitmix64(np.asarray(s, dtype=np.uint64))
    h = _splitmix64(h ^ np.asarray(step, dtype=np.uint64))
    h = _splitmix64(h ^ np.asarray(path, dtype=np.uint64))
    h = _splitmix64(h ^ np.asarray(comp, dtype=np.uint64))
    return h


def _to_unit(h: np.ndarray) -> np.ndarray:
    # 53-bit mantissa uniform in (0, 1]; the +1 keeps log() finite.
    u = (h >> np.uint64(11)).astype(np.float64)
    u += 1.0
    u *= 2.0 ** -53
    return u


def standard_normal(seed: int, step, path, comp) -> np.ndarray:
    """N(0,1) draw indexed by (seed, step, path, comp); broadcasts its index arrays."""
    h = _hash_indices(seed, step, path, comp)
    r = np.log(_to_unit(h))
    r *= -2.0
    theta = _to_unit(_splitmix64(h ^ _GOLDEN))
    theta *= 2.0 * np.pi
    return np.sqrt(r) * np.cos(theta)


def normal_increments(
    seed: int,
    n_steps: int,
    n_paths: int,
    d: int,
    dt: float,
    antithetic: bool = False,
    path_offset: int = 0,
) -> np.ndarray:
    """Brownian increments of shape (n_steps, n_paths, d), marginally N(0, dt).

    Column p holds absolute path ``path_offset + p``, so the increments of the
    paths [p0, p1) are ``normal_increments(..., n_paths=p1 - p0, path_offset=p0)``
    and equal ``normal_increments(..., n_paths=p1)[:, p0:p1]`` exactly.

    With ``antithetic=True`` the paths are antithetic in pairs: absolute path
    2k+1 is the negation of absolute path 2k, whatever the offset's parity.
    Each increment is still a pure function of (seed, step, path, component).
    Each pair k is hashed once, as ``standard_normal(seed, step, k, comp) *
    sqrt(dt)``, and written to its even path and negated to its odd one; IEEE
    rounding is symmetric in sign, so the odd path is bit for bit the negated
    draw times sqrt(dt).
    """
    out = np.empty((n_steps, n_paths, d))
    comps = np.arange(d, dtype=np.uint64)
    first, n_hashed = path_offset, n_paths
    if antithetic:
        # Column c holds absolute path path_offset + c, which is pair
        # (path_offset + c) >> 1: the even paths start at column `even` and
        # take the pairs from `even` on, the odd ones take them from 0 on.
        first, even = path_offset >> 1, path_offset & 1
        n_hashed = ((path_offset + n_paths + 1) >> 1) - first
    paths = np.arange(first, first + n_hashed, dtype=np.uint64)[:, None]
    sqrt_dt = np.sqrt(dt)
    rows = max(1, _BLOCK_NORMALS // max(n_hashed * d, 1))
    for s0 in range(0, n_steps, rows):
        s1 = min(s0 + rows, n_steps)
        steps = np.arange(s0, s1, dtype=np.uint64)[:, None, None]
        z = standard_normal(seed, steps, paths, comps)
        if antithetic:
            z *= sqrt_dt
            out[s0:s1, even::2] = z[:, even:]
            odd_paths = out[s0:s1, 1 - even :: 2]
            np.negative(z[:, : odd_paths.shape[1]], out=odd_paths)
        else:
            np.multiply(z, sqrt_dt, out=out[s0:s1])
    return out


def derive_seed(seed: int, *tags: int) -> int:
    """Deterministically derive a sub-seed from a seed and integer tags."""
    h = np.asarray(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    for tag in tags:
        h = _splitmix64(h ^ np.uint64(tag & 0xFFFFFFFFFFFFFFFF))
    return int(h)
