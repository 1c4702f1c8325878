"""Prime-field arithmetic for secure aggregation.

Secure aggregation sums client vectors modulo a public prime: masks drawn
uniformly from the field perfectly hide individual contributions, and
Shamir secret sharing (used for dropout recovery) needs field arithmetic
with invertible non-zero elements.

We default to the Mersenne prime ``2**61 - 1``: large enough that sums of
millions of 16-bit bit-report vectors never wrap, small enough that Python
integers stay single-word-ish and numpy can hold raw values before
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["PrimeField", "DEFAULT_PRIME"]

#: Mersenne prime 2**61 - 1.
DEFAULT_PRIME = (1 << 61) - 1

# Deterministic Miller-Rabin witnesses valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, memoized: fields are rebuilt per session."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: Largest modulus for which two field elements can be added in uint64
#: without wrapping (the array kernels' overflow precondition).
_MAX_VECTORIZED_MODULUS = 1 << 63

_M61 = np.uint64(DEFAULT_PRIME)
_M61_BITS = np.uint64(61)
_LOW31 = np.uint64(0x7FFFFFFF)
_SHIFT31 = np.uint64(31)
_SHIFT30 = np.uint64(30)
_ONE = np.uint64(1)

# Exact float64 matrix products: operands split into three 21-bit limbs,
# so one limb product is < 2**42, and an output entry sums at most
# 3 * _MATMUL_CHUNK of them -- below 2**53, exact in any summation order.
_LIMB_BITS = 21
_LIMBS = 3
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
_MATMUL_CHUNK = 682


def _reduce_m61(x: np.ndarray) -> np.ndarray:
    """Fold ``x < 2**63`` into ``[0, 2**61 - 1)``.

    For the Mersenne prime ``2**61 ≡ 1 (mod p)``, so one shift-and-add fold
    lands below ``2 p`` and a single conditional subtract finishes.
    """
    x = (x >> _M61_BITS) + (x & _M61)
    return np.where(x >= _M61, x - _M61, x)


def _mul_m61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``(a * b) mod (2**61 - 1)`` for reduced uint64 arrays.

    Splits each 61-bit factor into 31/30-bit halves; every partial product
    fits uint64, and the ``2**62`` / ``2**31`` scale factors reduce via the
    Mersenne identities ``2**62 ≡ 2`` and ``x * 2**31 ≡ rotl61(x, 31)``.
    """
    a_hi, a_lo = a >> _SHIFT31, a & _LOW31
    b_hi, b_lo = b >> _SHIFT31, b & _LOW31
    low = _reduce_m61(a_lo * b_lo)
    high = _reduce_m61((a_hi * b_hi) << _ONE)
    mid = _reduce_m61(a_hi * b_lo + a_lo * b_hi)
    mid = _reduce_m61(((mid << _SHIFT31) & _M61) + (mid >> _SHIFT30))
    return _reduce_m61(low + high + mid)


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic modulo a prime ``modulus``.

    Scalar and list methods operate on exact Python ints.  The ``*_array``
    methods are the vectorized twins over ``uint64`` numpy arrays -- exact
    for any modulus below ``2**63`` (so a single addition never wraps), which
    covers the default 61-bit Mersenne prime with headroom.

    Examples
    --------
    >>> f = PrimeField(97)
    >>> f.mul(50, 2)
    3
    >>> f.mul(f.inv(13), 13)
    1
    """

    modulus: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not _is_prime(self.modulus):
            raise ConfigurationError(f"field modulus must be prime, got {self.modulus}")

    # ------------------------------------------------------------------
    def reduce(self, x: int) -> int:
        return int(x) % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem."""
        a = a % self.modulus
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in a prime field")
        return pow(a, self.modulus - 2, self.modulus)

    # ------------------------------------------------------------------
    def random_element(self, rng: np.random.Generator | int | None = None) -> int:
        """Uniform field element."""
        gen = ensure_rng(rng)
        return int(gen.integers(0, self.modulus))

    def random_vector(self, length: int, rng: np.random.Generator | int | None = None) -> list[int]:
        """Uniform field vector, returned as Python ints (exact arithmetic).

        Stream-identical to ``length`` sequential :meth:`random_element`
        calls on the same generator (numpy's bounded-integer sampler
        consumes the bit stream the same way for scalar and sized draws),
        which lets callers batch seed generation without changing results.
        """
        gen = ensure_rng(rng)
        return gen.integers(0, self.modulus, size=length).tolist()

    def add_vectors(self, a: list[int], b: list[int]) -> list[int]:
        if len(a) != len(b):
            raise ConfigurationError(f"vector lengths differ: {len(a)} vs {len(b)}")
        return [(x + y) % self.modulus for x, y in zip(a, b)]

    def sub_vectors(self, a: list[int], b: list[int]) -> list[int]:
        if len(a) != len(b):
            raise ConfigurationError(f"vector lengths differ: {len(a)} vs {len(b)}")
        return [(x - y) % self.modulus for x, y in zip(a, b)]

    def centered(self, x: int) -> int:
        """Map a field element to the centered range ``(-p/2, p/2]``.

        Lets callers recover small *signed* integers after modular sums.
        """
        x = x % self.modulus
        return x - self.modulus if x > self.modulus // 2 else x

    # ------------------------------------------------------------------
    # Array kernels: exact uint64 arithmetic for the vectorized masking
    # path.  All of them assume (and _require_vectorizable checks) that
    # the modulus leaves one bit of uint64 headroom, so `a + b` with
    # a, b < p cannot wrap.
    # ------------------------------------------------------------------
    def _require_vectorizable(self) -> None:
        if self.modulus >= _MAX_VECTORIZED_MODULUS:
            raise ConfigurationError(
                f"array field ops need modulus < 2**63, got {self.modulus}"
            )

    def reduce_array(self, values: np.ndarray) -> np.ndarray:
        """Reduce an integer array into ``[0, p)`` as ``uint64``.

        Negative inputs are accepted (numpy's remainder is non-negative for
        a positive modulus), so callers can feed raw signed contributions.
        """
        self._require_vectorizable()
        arr = np.asarray(values)
        if arr.dtype == np.uint64:
            return arr % np.uint64(self.modulus)
        return (np.asarray(arr, dtype=np.int64) % np.int64(self.modulus)).astype(np.uint64)

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ``(a + b) mod p`` over reduced ``uint64`` arrays."""
        self._require_vectorizable()
        return (a + b) % np.uint64(self.modulus)

    def sub_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ``(a - b) mod p``; safe against unsigned underflow."""
        self._require_vectorizable()
        p = np.uint64(self.modulus)
        return (a + (p - b)) % p

    def mul_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ``(a * b) mod p`` over reduced ``uint64`` arrays.

        Broadcasts like numpy multiplication.  The default Mersenne prime
        runs entirely in uint64 split/rotate arithmetic (exact -- pinned
        against scalar :meth:`mul` by a near-modulus stress test); other
        moduli fall back to exact Python-int products elementwise.
        """
        self._require_vectorizable()
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        if self.modulus == DEFAULT_PRIME:
            return _mul_m61(a, b)
        a2, b2 = np.broadcast_arrays(a, b)
        out = [
            (x * y) % self.modulus
            for x, y in zip(a2.ravel().tolist(), b2.ravel().tolist())
        ]
        return np.array(out, dtype=np.uint64).reshape(a2.shape)

    def sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """Exact mod-``p`` sum over the row axis (``-2``) of entries ``<= p``.

        A ``(k, length)`` array sums to one ``(length,)`` vector; leading
        axes are kept, so ``(G, k, length)`` sums to ``(G, length)`` -- one
        reduction for every shard of a group.  Rows are folded in blocks
        small enough that the running uint64 partial sums cannot wrap: with
        ``p < 2**63`` at least 2 rows fit per block, and the default 61-bit
        prime allows 7 -- so the reduction is O(k/block) numpy passes, not
        O(k) Python additions.
        """
        self._require_vectorizable()
        rows = np.atleast_2d(np.asarray(rows, dtype=np.uint64))
        p = np.uint64(self.modulus)
        # How many values <= p fit in uint64 alongside the reduced
        # accumulator: block * p + (p - 1) <= 2**64 - 1.  Admitting p itself
        # lets callers fold unreduced negations p - x.
        block = ((1 << 64) - self.modulus) // self.modulus
        total = np.zeros(rows.shape[:-2] + rows.shape[-1:], dtype=np.uint64)
        for start in range(0, rows.shape[-2], block):
            total += rows[..., start : start + block, :].sum(axis=-2)
            total %= p
        return total

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact ``(a @ b) mod p`` for reduced ``(m, t)`` and ``(t, n)`` arrays.

        Both operands split into three 21-bit limbs, and one float64 matrix
        product collects every limb product by weight: ``a``'s limbs sit
        side by side, ``b``'s limbs fill a block-Toeplitz matrix, so output
        block ``k`` is ``sum_{i+j=k} a_i @ b_j``, the partial sum of weight
        ``2**(21 k)``.  Each entry adds at most ``3 t`` limb products below
        ``2**42``; with the inner axis chunked to 682 that stays below
        ``2**53``, so BLAS computes it exactly in any summation order.  The
        five weighted blocks then fold exactly in uint64.
        """
        self._require_vectorizable()
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        (m, inner), n = a.shape, b.shape[1]
        weights = 2 * _LIMBS - 1
        shifts = np.arange(_LIMBS, dtype=np.uint64) * np.uint64(_LIMB_BITS)
        bits = np.arange(weights, dtype=np.uint64)[:, None, None] * np.uint64(_LIMB_BITS)
        out = np.zeros((m, n), dtype=np.uint64)
        for start in range(0, inner, _MATMUL_CHUNK):
            a_part, b_part = a[:, start : start + _MATMUL_CHUNK], b[start : start + _MATMUL_CHUNK]
            t = a_part.shape[1]
            a_limbs = (a_part[:, None, :] >> shifts[:, None]) & _LIMB_MASK
            b_limbs = (b_part[None] >> shifts[:, None, None]) & _LIMB_MASK
            # toeplitz[k] stacks b_{k-i} under a's limb i, so a's side-by-side
            # limbs times toeplitz[k] is the weight-k partial sum.
            toeplitz = np.zeros((weights, _LIMBS, t, n))
            for i in range(_LIMBS):
                toeplitz[i : i + _LIMBS, i] = b_limbs
            by_weight = np.matmul(
                a_limbs.reshape(m, _LIMBS * t).astype(np.float64),
                toeplitz.reshape(weights, _LIMBS * t, n),
            ).astype(np.uint64)
            if self.modulus <= 1 << 53:  # entries are below 2**53
                by_weight %= np.uint64(self.modulus)
            weighted = self._times_pow2(by_weight, bits).reshape(weights, m * n)
            out = self.add_arrays(out, self.sum_rows(weighted).reshape(m, n))
        return out

    def _times_pow2(self, x: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """``(x * 2**bits) mod p`` for a reduced array: a rotation for 2**61 - 1."""
        if self.modulus == DEFAULT_PRIME:
            r = bits % _M61_BITS
            return ((x << r) & _M61) | (x >> (_M61_BITS - r))
        factors = [pow(2, int(k), self.modulus) for k in np.ravel(bits)]
        return self.mul_arrays(x, np.array(factors, dtype=np.uint64).reshape(np.shape(bits)))

    def centered_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`centered`: field elements to signed ``int64``."""
        self._require_vectorizable()
        arr = np.asarray(values, dtype=np.uint64) % np.uint64(self.modulus)
        out = arr.astype(np.int64)
        return np.where(arr > np.uint64(self.modulus // 2), out - np.int64(self.modulus), out)
