"""Counter-based normal variates.

Every increment is a pure function of (seed, step, path, component), so paired
simulations can share noise exactly (common random numbers) and results do not
depend on how the paths are partitioned into chunks.

The generator hashes the four indices with the splitmix64 finalizer and feeds
two 53-bit uniforms into a Box-Muller transform.  This is not a
cryptographic generator; it is a reproducibility device.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer on uint64 arrays (modular arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN).astype(np.uint64)
        z ^= z >> np.uint64(30)
        z = z * _MIX1
        z ^= z >> np.uint64(27)
        z = z * _MIX2
        z ^= z >> np.uint64(31)
    return z


def _hash_indices(seed: int, step, path, comp) -> np.ndarray:
    """Combine (seed, step, path, comp) into one well-mixed uint64 per element."""
    s = np.uint64(np.int64(seed).view(np.uint64) if isinstance(seed, np.int64) else seed & 0xFFFFFFFFFFFFFFFF)
    h = _splitmix64(np.asarray(s, dtype=np.uint64))
    h = _splitmix64(h ^ np.asarray(step, dtype=np.uint64))
    h = _splitmix64(h ^ np.asarray(path, dtype=np.uint64))
    h = _splitmix64(h ^ np.asarray(comp, dtype=np.uint64))
    return h


def _to_unit(h: np.ndarray) -> np.ndarray:
    # 53-bit mantissa uniform in (0, 1]; the +1 keeps log() finite.
    return ((h >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def standard_normal(seed: int, step, path, comp) -> np.ndarray:
    """N(0,1) draw indexed by (seed, step, path, comp); broadcasts its index arrays."""
    step, path, comp = np.broadcast_arrays(
        np.asarray(step, dtype=np.uint64),
        np.asarray(path, dtype=np.uint64),
        np.asarray(comp, dtype=np.uint64),
    )
    h = _hash_indices(seed, step, path, comp)
    u1 = _to_unit(h)
    u2 = _to_unit(_splitmix64(h ^ _GOLDEN))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def normal_increments(
    seed: int,
    n_steps: int,
    n_paths: int,
    d: int,
    dt: float,
    antithetic: bool = False,
) -> np.ndarray:
    """Brownian increments of shape (n_steps, n_paths, d), marginally N(0, dt).

    With ``antithetic=True`` the paths are antithetic in pairs: path 2k+1 is the
    negation of path 2k.  Each increment is still a pure function of
    (seed, step, path, component).
    """
    steps = np.arange(n_steps, dtype=np.uint64)[:, None, None]
    comps = np.arange(d, dtype=np.uint64)[None, None, :]
    if antithetic:
        paths = np.arange(n_paths, dtype=np.uint64)[None, :, None]
        base = standard_normal(seed, steps, paths >> np.uint64(1), comps)
        sign = np.where((np.arange(n_paths) % 2 == 0)[None, :, None], 1.0, -1.0)
        z = base * sign
    else:
        paths = np.arange(n_paths, dtype=np.uint64)[None, :, None]
        z = standard_normal(seed, steps, paths, comps)
    return z * np.sqrt(dt)


def derive_seed(seed: int, *tags: int) -> int:
    """Deterministically derive a sub-seed from a seed and integer tags."""
    h = np.asarray(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    for tag in tags:
        h = _splitmix64(h ^ np.uint64(tag & 0xFFFFFFFFFFFFFFFF))
    return int(h)
