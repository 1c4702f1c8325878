"""Mask generation for pairwise-masked secure aggregation.

Each client ``i`` submits ``x_i + b_i + sum_{j>i} m_ij - sum_{j<i} m_ji``
(mod p), where ``b_i`` is a self-mask expanded from a private seed and
``m_ij`` is a pairwise mask expanded from a seed shared by clients ``i`` and
``j``.  Summed over all clients, the pairwise masks cancel exactly; the
self-masks are removed by the server after share-based seed recovery.

Masks are expanded deterministically with Philox-4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3"), the same counter-based
generator numpy ships -- but evaluated here as a *batched* numpy kernel:
one call expands every seed of a shard at once, each seed keying its own
counter stream, with no per-seed ``Generator`` construction.  The kernel is
pinned bit-identical to ``np.random.Philox(key=seed).random_raw`` by a
test.  Uniform words are truncated into the field with a single modulo;
the residue bias is < 2**-56 for the default 61-bit prime and irrelevant
to correctness, which only needs both endpoints of a seed to derive the
*same* vector so masks cancel exactly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.federated.secure_agg.field import PrimeField

__all__ = [
    "expand_mask",
    "expand_masks",
    "philox4x64",
    "apply_masks",
    "pairwise_mask_sign",
]

# Philox-4x64 round multipliers and Weyl key increments (Random123).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_WEYL_0 = 0x9E3779B97F4A7C15
_WEYL_1 = 0xBB67AE8584CAA73B
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10

# Hoisted constants: the multipliers' 32-bit halves, and the per-round key
# bumps.  Key word 1 is always 0, so its whole schedule is one scalar per
# round; key word 0 is the caller's key plus that round's scalar bump.
_M0 = (np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M0 & 0xFFFFFFFF), np.uint64(_PHILOX_M0 >> 32))
_M1 = (np.uint64(_PHILOX_M1), np.uint64(_PHILOX_M1 & 0xFFFFFFFF), np.uint64(_PHILOX_M1 >> 32))
_KEY1 = [np.uint64(r * _WEYL_1 % (1 << 64)) for r in range(_ROUNDS)]
_KEY0_STEP = np.uint64(_WEYL_0)


def _mulhilo(m: tuple, b: np.ndarray, hi: np.ndarray, tmp: tuple) -> None:
    """Full 64x64 -> 128 bit product of constant ``m`` with array ``b``, in place.

    uint64 multiplication wraps, so the high word is assembled from 32-bit
    half products (schoolbook); every partial sum provably fits in uint64.
    ``m`` is ``(value, low half, high half)``.  The high word lands in
    ``hi`` and the low word overwrites ``b``; ``tmp`` holds three scratch
    arrays shaped like ``b``, so a call allocates nothing.
    """
    a, a_lo, a_hi = m
    b_lo, b_hi, t1 = tmp
    np.bitwise_and(b, _MASK32, out=b_lo)
    np.right_shift(b, _SHIFT32, out=b_hi)
    np.multiply(b_lo, a_lo, out=t1)
    t1 >>= _SHIFT32
    b_lo *= a_hi
    t1 += b_lo  # a_hi * b_lo + (a_lo * b_lo >> 32)
    t2 = b_lo
    np.multiply(b_hi, a_lo, out=t2)
    np.bitwise_and(t1, _MASK32, out=hi)
    t2 += hi  # a_lo * b_hi + (t1 & mask32)
    np.multiply(b_hi, a_hi, out=hi)
    t1 >>= _SHIFT32
    hi += t1
    t2 >>= _SHIFT32
    hi += t2
    b *= a


def philox4x64(
    key0: np.ndarray, counter0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox-4x64-10 blocks, vectorized over keys and counters.

    ``key0`` and ``counter0`` broadcast together; each element pair selects
    the block with key ``(key0, 0)`` and counter ``(counter0, 0, 0, 0)``
    and yields that block's four output words.  A test pins the kernel
    bit-identical to ``np.random.Philox(key=key0).random_raw`` (numpy
    pre-increments, so its ``i``-th raw block is counter ``i + 1``).

    The rounds run in ten preallocated buffers (``out=`` ufuncs, state
    words rotated by name), so the ten rounds allocate nothing.
    """
    shape = np.broadcast_shapes(np.shape(key0), np.shape(counter0))
    c0 = np.empty(shape, dtype=np.uint64)
    c0[...] = np.asarray(counter0, dtype=np.uint64)
    k0 = np.empty(shape, dtype=np.uint64)
    k0[...] = np.asarray(key0, dtype=np.uint64)
    c1, c2, c3, hi0, hi1, *tmp = (np.zeros(shape, dtype=np.uint64) for _ in range(8))
    with np.errstate(over="ignore"):
        for r in range(_ROUNDS):
            # c0 and c2 become the low product words in place.
            _mulhilo(_M0, c0, hi0, tmp)
            _mulhilo(_M1, c2, hi1, tmp)
            hi1 ^= c1
            hi1 ^= k0
            hi0 ^= c3
            hi0 ^= _KEY1[r]
            k0 += _KEY0_STEP
            # Next state: (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the
            # consumed c1 and c3 buffers take the next high words.
            c0, c1, c2, c3, hi0, hi1 = hi1, c2, hi0, c0, c1, c3
    return c0, c1, c2, c3


def expand_masks(seeds, length: int, field: PrimeField) -> np.ndarray:
    """Expand each seed into one row of a ``(len(seeds), length)`` uint64 array.

    One vectorized Philox pass covers every seed: seed ``i`` keys its own
    counter stream (counters ``0, 1, ...`` per 4-word block), so rows depend
    only on their seed -- both endpoints of a pairwise seed, and any
    re-expansion during dropout recovery, derive exactly the same mask.
    """
    if length < 0:
        raise ConfigurationError(f"mask length must be >= 0, got {length}")
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    if length == 0 or seeds.size == 0:
        return np.zeros((seeds.size, length), dtype=np.uint64)
    blocks = -(-length // 4)
    lanes = philox4x64(
        seeds[:, None], np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    )
    words = np.stack(lanes, axis=-1).reshape(seeds.size, blocks * 4)
    del lanes
    words %= np.uint64(field.modulus)
    return words[:, :length]


def expand_mask(seed: int, length: int, field: PrimeField) -> list[int]:
    """Deterministically expand ``seed`` into a uniform field vector.

    Both endpoints of a pairwise seed must derive the *same* vector, so the
    expansion depends only on the seed value.
    """
    return [int(v) for v in expand_masks([seed], length, field)[0]]


def pairwise_mask_sign(my_id: int, other_id: int) -> int:
    """Sign convention making pairwise masks cancel: +1 if ``my_id < other_id``.

    Client ``i`` *adds* ``m_ij`` for peers with larger ids and *subtracts*
    it for peers with smaller ids, so each pair contributes ``+m - m = 0``
    to the total.
    """
    if my_id == other_id:
        raise ConfigurationError("a client has no pairwise mask with itself")
    return 1 if my_id < other_id else -1


def apply_masks(
    values: list[int],
    self_seed: int,
    pairwise_seeds: dict[int, int],
    my_id: int,
    field: PrimeField,
) -> list[int]:
    """Mask a client's value vector for submission.

    Parameters
    ----------
    values:
        The client's plaintext contribution (field elements).
    self_seed:
        Seed of the client's self-mask ``b_i``.
    pairwise_seeds:
        ``other_id -> shared seed`` for every *live* peer.
    my_id:
        This client's id (determines mask signs).
    field:
        The aggregation field.
    """
    masked = [field.reduce(v) for v in values]
    masked = field.add_vectors(masked, expand_mask(self_seed, len(values), field))
    for other_id, seed in pairwise_seeds.items():
        mask = expand_mask(seed, len(values), field)
        if pairwise_mask_sign(my_id, other_id) > 0:
            masked = field.add_vectors(masked, mask)
        else:
            masked = field.sub_vectors(masked, mask)
    return masked
