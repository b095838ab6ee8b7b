"""Deterministic random-number plumbing.

Every stochastic routine in this package takes an explicit numpy Generator,
so a run is fully determined by its 64-bit seed. Streams are backed by the
Philox counter-based bit generator: the output for a given key is fixed by
the algorithm itself, which keeps fixtures portable across platforms.

Gaussian variates are produced by Box-Muller from the uniform stream rather
than through ``Generator.standard_normal`` (ziggurat), again so that pinned
fixtures do not depend on numpy internals. Each call consumes a fixed,
size-determined number of uniforms.

An array is filled from the stream in C order, so one ``rng.random((m, k))``
call yields the same values, in row order, as m calls of ``rng.random(k)``.
A run uses this to draw its noise in blocks ahead of its round loop
(:func:`block_rows` sizes the blocks): block rows come out in the
per-round stream order, and :func:`box_muller` applied to a block gives
each row the normals :func:`gaussians` would give it alone.
"""

from __future__ import annotations

import numpy as np

_MAX_SEED = 2**64

# Uniforms drawn per block of noise rows: 256 KiB of float64 bounds the noise
# memory of a run, or of a batch of seeds sharing a block, at any horizon
# (blocks twice as large added about 1 MB of peak RSS at d = 5), and at
# d = 1024 a block of one seed still spreads its per-call cost over 31 or 32
# rounds.
CHUNK_UNIFORMS = 1 << 15


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed directly by ``seed`` (a 64-bit integer)."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` statistically independent child generators derived from ``seed``.

    Used to fan a master seed out to independent sub-experiments; child i is
    a pure function of (seed, i).
    """
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.Philox(s)) for s in children]


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from uniform blocks of equal shape, along the last axis.

    Maps (u1, u2) to r*cos(2*pi*u2) followed by r*sin(2*pi*u2), with
    r = sqrt(-2 ln(1 - u1)): the cosine block precedes the sine block.
    """
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=-1)


def gaussians(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` i.i.d. standard normals via :func:`box_muller`.

    Consumes exactly ``2 * ceil(count / 2)`` uniforms: the first half feed
    u1 and the second half u2; a trailing extra variate is dropped.
    """
    pairs = (count + 1) // 2
    u = rng.random((2, pairs))
    return box_muller(u[0], u[1])[:count]


def block_rows(n: int, width: int):
    """Row counts of the blocks that cover n rounds drawing ``width`` uniforms each."""
    rows = max(1, CHUNK_UNIFORMS // width)
    for start in range(0, n, rows):
        yield min(rows, n - start)
