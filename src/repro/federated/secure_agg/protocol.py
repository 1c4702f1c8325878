"""Pairwise-masked secure aggregation with dropout recovery.

A functional, laptop-scale implementation of the Segal/Bonawitz et al.
protocol shape the paper relies on (Section 3.3 "Secure aggregation"):

1. **Setup.**  Every pair of clients shares a pairwise mask seed (in a real
   deployment via Diffie--Hellman; here the trusted setup hands both ends
   the same seed).  Every client also draws a private self-mask seed and
   Shamir-shares it among all clients with a reconstruction threshold.
2. **Submission.**  Each client submits its vector plus its self-mask plus
   signed pairwise masks (see :mod:`.masking`).  Summed over everyone, the
   pairwise masks cancel.
3. **Recovery.**  Clients that never submit are *dropouts*.  Their pairwise
   masks linger inside survivors' submissions, so each survivor reveals the
   seed it shared with each dropout and the server subtracts those masks.
   Survivors' self-masks are removed by reconstructing their seeds from any
   ``threshold`` surviving shareholders.

The server learns exactly the sum of the submitted vectors -- bit-pushing's
per-bit counts -- and nothing about individual contributions (each
submission is uniformly distributed given the others).

All mask arithmetic is vectorized and runs on **shard groups**: a
:class:`ShardGroup` stacks the setup of ``G`` equal-size sessions on a
leading shard axis, so one Philox pass expands every seed the group
needs, one exact field matrix product Shamir-splits every self seed, and
survivor/dropout recovery is batched across the group.  A
:class:`SecureAggregationSession` is simply a group of one; the sharded
tree of :mod:`repro.federated.secure_agg.hierarchy` runs the same
functions on groups of many shards.  Batched submissions are bit-identical
to per-client :meth:`~SecureAggregationSession.submit` calls -- field sums
are exact and order-free.

**Scope note:** this is a protocol-faithful simulation for experiments, not
hardened cryptography: seeds stand in for DH key agreement, and all parties
live in one process.  What it preserves -- and what the tests check -- is the
protocol's *behaviour*: exact sums, tolerance of up to ``n - threshold``
dropouts, and hard failure below the threshold.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SecureAggregationError
from repro.federated.secure_agg.field import PrimeField
from repro.federated.secure_agg.masking import expand_masks
from repro.federated.secure_agg.shamir import (
    _evaluate_shares,
    _interpolate_at_zero,
    _lagrange_weights_at_zero,
)
from repro.observability import get_metrics, get_tracer
from repro.rng import ensure_rng

__all__ = ["SecureAggregationSession", "ShardGroup", "default_threshold", "secure_sum"]


def default_threshold(n_clients: int) -> int:
    """The canonical 2/3-majority Shamir/survivor threshold for ``n_clients``.

    ``max(2, ceil(2 n / 3))`` -- the single source of truth shared by
    :func:`secure_sum`, the hierarchical aggregator, and the server's shard
    loop (two hand-rolled copies of this formula used to live apart; a test
    pins their equality on this helper now).
    """
    if n_clients < 1:
        raise ConfigurationError(f"n_clients must be >= 1, got {n_clients}")
    return max(2, -(-2 * n_clients // 3))


@lru_cache(maxsize=16)
def _pair_layout(n_clients: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pair bookkeeping for ``n_clients``-client sessions, cached per size.

    Pairs are numbered in ``np.triu_indices`` order -- the order their
    seeds are drawn in.  Returns read-only arrays: the pairs' lower and
    upper endpoints, plus two ``(n, n - 1)`` tables whose row ``i`` lists
    the pairs client ``i`` belongs to and whether it *subtracts* each
    pair's mask (the peer has the smaller id -- the cancellation
    convention of :func:`~repro.federated.secure_agg.masking.pairwise_mask_sign`).
    """
    n = n_clients
    lower, upper = np.triu_indices(n, k=1)
    me = np.arange(n)[:, None]
    peer = np.arange(n - 1)[None, :]
    peer = peer + (peer >= me)
    low, high = np.minimum(me, peer), np.maximum(me, peer)
    pairs = low * n - low * (low + 1) // 2 + high - low - 1
    layout = (lower, upper, pairs, peer < me)
    for table in layout:
        table.flags.writeable = False  # shared by every caller of the cache
    return layout


def _sum_by_shard(
    field: PrimeField, rows: np.ndarray, shard: np.ndarray, n_shards: int
) -> np.ndarray:
    """Exact per-shard mod-``p`` sums of ``(R, L)`` rows tagged with a shard index.

    Scatters the rows into a zero-padded ``(n_shards, max rows, L)`` block
    and folds it with one :meth:`PrimeField.sum_rows` call.
    """
    order = np.argsort(shard, kind="stable")
    counts = np.bincount(shard, minlength=n_shards)
    slot = np.arange(shard.size) - np.repeat(np.cumsum(counts) - counts, counts)
    dense = np.zeros((n_shards, int(counts.max(initial=0)), rows.shape[-1]), dtype=np.uint64)
    dense[shard[order], slot] = rows[order]
    return field.sum_rows(dense)


@dataclass(frozen=True)
class ShardGroup:
    """The setup of ``G`` equal-size masking sessions, on a leading shard axis.

    ``pair_seeds[g]`` holds shard ``g``'s pairwise seeds in pair order (see
    :func:`_pair_layout`), ``self_seeds[g]`` its clients' self-mask seeds,
    and ``shares[g, i, h]`` the Shamir share of client ``i``'s self seed
    that client ``h`` holds (evaluation point ``x = h + 1``).  All seeds are
    field elements: self seeds travel through Shamir shares, so anything
    ``>=`` the modulus would reconstruct to a different value than was
    expanded.
    """

    n_clients: int
    threshold: int
    field: PrimeField
    pair_seeds: np.ndarray
    self_seeds: np.ndarray
    shares: np.ndarray

    @classmethod
    def setup(
        cls,
        gens: Sequence[np.random.Generator],
        n_clients: int,
        threshold: int,
        field: PrimeField,
    ) -> ShardGroup:
        """Draw every shard's seeds from its own generator, then share them.

        Each generator makes the same three draws a lone session always
        made -- pair seeds, self seeds, then the ``(n, threshold - 1)``
        share-polynomial coefficients, as :func:`~.shamir.split_secrets`
        draws them -- so a shard's masks do not depend on its group.  The
        split itself is one exact ``(G n, t) @ (t, n)`` field product
        against the cached Vandermonde matrix.
        """
        n, t, modulus = n_clients, threshold, field.modulus
        n_pairs = n * (n - 1) // 2
        pair_seeds = np.empty((len(gens), n_pairs), dtype=np.uint64)
        coefficients = np.zeros((len(gens), n, t), dtype=np.uint64)
        for g, gen in enumerate(gens):
            pair_seeds[g] = gen.integers(0, modulus, size=n_pairs)
            coefficients[g, :, 0] = gen.integers(0, modulus, size=n)
            if t > 1:
                coefficients[g, :, 1:] = gen.integers(0, modulus, size=(n, t - 1))
        shares = _evaluate_shares(coefficients.reshape(-1, t), n, field)
        return cls(
            n_clients=n,
            threshold=t,
            field=field,
            pair_seeds=pair_seeds,
            self_seeds=coefficients[:, :, 0].copy(),
            shares=shares.reshape(len(gens), n, n),
        )

    def mask(self, shard: np.ndarray, client: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Mask reduced ``(k, L)`` rows submitted by ``(shard, client)`` pairs.

        Row ``r`` becomes ``x + b + sum_{j>i} m_ij - sum_{j<i} m_ji`` for
        client ``i = client[r]`` of shard ``shard[r]``.  Every pairwise seed
        the submitters touch and every submitter's self seed expand in one
        Philox pass (a mask shared by two submitters is expanded once), and
        the signed pair masks fold through the cached per-size layout.
        """
        field = self.field
        n_pairs = self.pair_seeds.shape[1]
        _, _, peers, subtracts = _pair_layout(self.n_clients)
        needed = shard[:, None] * n_pairs + peers[client]
        pair_ids, inverse = np.unique(needed, return_inverse=True)
        seeds = np.concatenate(
            [self.self_seeds[shard, client], self.pair_seeds.reshape(-1)[pair_ids]]
        )
        masks = expand_masks(seeds, rows.shape[-1], field)
        rows = field.add_arrays(rows, masks[: len(rows)])
        # Each row's n - 1 pair masks, negated in place where it subtracts
        # (p - m is m's negation; the fold accepts p itself as a zero).
        signed = masks[len(rows) :][inverse.reshape(needed.shape)]
        del masks
        np.subtract(
            np.uint64(field.modulus), signed, out=signed, where=subtracts[client][..., None]
        )
        return field.add_arrays(rows, field.sum_rows(signed))

    def unmask(self, submitted: np.ndarray, masked: np.ndarray, shard: np.ndarray) -> np.ndarray:
        """Exact ``(G, L)`` per-shard totals of the submitted masked rows.

        ``submitted`` is a ``(G, n)`` boolean map of who submitted, and
        ``masked`` holds their masked rows, each tagged with its shard in
        ``shard``.  Shards below the threshold cannot be unmasked and come
        back as zero rows; the caller decides what a failed shard means.
        For every other shard the first ``threshold`` survivors' shares
        reconstruct each survivor's self seed (Lagrange weights per
        survivor set, checked against the threshold), and each survivor
        reveals the seed it shares with each dropout.  All of those seeds
        expand in one Philox pass and are subtracted -- masks a survivor
        *added* at submission are subtracted here, and vice versa.
        """
        field, t = self.field, self.threshold
        recoverable = submitted.sum(axis=1) >= t
        live = submitted & recoverable[:, None]
        holders = np.argsort(~live, axis=1, kind="stable")[:, :t]
        weights = np.zeros((len(live), t), dtype=np.uint64)
        for g in np.flatnonzero(recoverable):
            weights[g] = _lagrange_weights_at_zero(
                tuple((holders[g] + 1).tolist()), field.modulus, expected_threshold=t
            )
        seed_shard, seed_client = np.nonzero(live)
        held = np.take_along_axis(self.shares, holders[:, None, :], axis=2)
        self_seeds = _interpolate_at_zero(
            field, held[seed_shard, seed_client], weights[seed_shard]
        )
        lower, upper, _, _ = _pair_layout(self.n_clients)
        lower_lives = submitted[:, lower]
        revealed = recoverable[:, None] & (lower_lives != submitted[:, upper])
        pair_shard, pair = np.nonzero(revealed)
        masks = expand_masks(
            np.concatenate([self_seeds, self.pair_seeds[pair_shard, pair]]),
            masked.shape[-1],
            field,
        )
        # Negate what was added at submission: every self mask, and each
        # revealed pair mask whose survivor is the pair's lower id.
        negate = np.concatenate(
            [np.ones(self_seeds.size, dtype=bool), lower_lives[pair_shard, pair]]
        )
        masks[negate] = field.sub_arrays(np.uint64(0), masks[negate])
        kept = recoverable[shard]
        return _sum_by_shard(
            field,
            np.concatenate([masked[kept], masks]),
            np.concatenate([shard[kept], seed_shard, pair_shard]),
            len(live),
        )


@contextmanager
def finalize_span(
    n_clients: int, submitted: int, threshold: int, count_failure: bool = True
) -> Iterator[None]:
    """One session's ``secure_agg.finalize`` span and ``secure_agg_*`` counters.

    Raises :class:`SecureAggregationError` inside the span (marking it an
    error) when fewer than ``threshold`` clients submitted; otherwise the
    body runs and the session counters advance on success.
    """
    metrics = get_metrics()
    dropouts = n_clients - submitted
    with get_tracer().span(
        "secure_agg.finalize",
        {
            "n_clients": n_clients,
            "submitted": submitted,
            "dropouts": dropouts,
            "threshold": threshold,
        },
    ):
        if submitted < threshold:
            if metrics.enabled and count_failure:
                metrics.counter("secure_agg_failures_total").inc()
            raise SecureAggregationError(
                f"only {submitted} of {n_clients} clients submitted; "
                f"threshold is {threshold}"
            )
        yield
        if metrics.enabled:
            metrics.counter("secure_agg_sessions_total").inc()
            metrics.counter("secure_agg_dropouts_total").inc(dropouts)
            metrics.counter("secure_agg_self_masks_removed_total").inc(submitted)
            metrics.counter("secure_agg_masks_recovered_total").inc(submitted * dropouts)


class SecureAggregationSession:
    """One secure-aggregation round over a fixed set of clients.

    A :class:`ShardGroup` of one: setup, masking and recovery are the
    group kernels the sharded tree runs on many shards at once.

    Parameters
    ----------
    n_clients:
        Number of participants, with ids ``0 .. n_clients - 1``.
    vector_length:
        Length of each client's contribution vector.
    threshold:
        Minimum number of submitting clients for the round to complete
        (also the Shamir reconstruction threshold).
    field:
        Aggregation field (default: the 61-bit Mersenne prime field).
    rng:
        Setup randomness (seed generation and share polynomials).

    Examples
    --------
    >>> session = SecureAggregationSession(n_clients=4, vector_length=3, threshold=3, rng=0)
    >>> for cid in [0, 1, 3]:                      # client 2 drops out
    ...     _ = session.submit(cid, [cid, 10 + cid, 1])
    >>> session.finalize()
    [4, 34, 3]
    """

    def __init__(
        self,
        n_clients: int,
        vector_length: int,
        threshold: int,
        field: PrimeField | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_clients < 2:
            raise ConfigurationError(f"secure aggregation needs >= 2 clients, got {n_clients}")
        if vector_length < 1:
            raise ConfigurationError(f"vector_length must be >= 1, got {vector_length}")
        if not 2 <= threshold <= n_clients:
            raise ConfigurationError(
                f"need 2 <= threshold <= n_clients, got threshold={threshold}, n={n_clients}"
            )
        self.n_clients = n_clients
        self.vector_length = vector_length
        self.threshold = threshold
        self.field = field or PrimeField()
        # Setup phase (simulated trusted key agreement).
        self._group = ShardGroup.setup([ensure_rng(rng)], n_clients, threshold, self.field)
        self._submissions: dict[int, np.ndarray] = {}
        self._finalized = False
        self._failed = False

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._finalized or self._failed:
            raise SecureAggregationError("session already finalized")

    def _mask_rows(self, client_ids: Sequence[int], rows: np.ndarray) -> np.ndarray:
        """Mask one reduced ``(k, length)`` uint64 row per submitting client."""
        ids = np.asarray(client_ids, dtype=np.intp)
        return self._group.mask(np.zeros_like(ids), ids, rows)

    def _validate_ids(self, client_ids: Sequence[int]) -> None:
        seen = set()
        for cid in client_ids:
            if not 0 <= cid < self.n_clients:
                raise ConfigurationError(f"unknown client id {cid}")
            if cid in self._submissions or cid in seen:
                raise SecureAggregationError(f"client {cid} already submitted")
            seen.add(cid)

    def submit(self, client_id: int, values: list[int]) -> list[int]:
        """Mask and record one client's contribution; returns the masked vector.

        The returned vector is what crosses the wire: uniformly random to
        any observer who lacks the seeds.
        """
        self._check_open()
        client_id = int(client_id)
        self._validate_ids([client_id])
        if len(values) != self.vector_length:
            raise ConfigurationError(
                f"expected vector of length {self.vector_length}, got {len(values)}"
            )
        reduced = np.array([[self.field.reduce(v) for v in values]], dtype=np.uint64)
        masked = self._mask_rows([client_id], reduced)[0]
        self._submissions[client_id] = masked
        return [int(v) for v in masked]

    def submit_batch(self, client_ids: Sequence[int], vectors: np.ndarray) -> np.ndarray:
        """Mask and record many clients' contributions in one vectorized call.

        ``vectors`` is a ``(len(client_ids), vector_length)`` integer array
        (int64 range; bit-report counters are tiny).  Returns the masked
        ``(k, length)`` uint64 matrix.  Bit-identical to ``k`` sequential
        :meth:`submit` calls -- masks depend only on setup seeds, and field
        addition is exact -- just without the per-client Python loops.
        """
        self._check_open()
        client_ids = [int(c) for c in client_ids]
        vectors = np.atleast_2d(np.asarray(vectors))
        if vectors.shape != (len(client_ids), self.vector_length):
            raise ConfigurationError(
                f"expected a ({len(client_ids)}, {self.vector_length}) vector batch, "
                f"got {vectors.shape}"
            )
        self._validate_ids(client_ids)
        if not client_ids:
            return np.zeros((0, self.vector_length), dtype=np.uint64)
        masked = self._mask_rows(client_ids, self.field.reduce_array(vectors))
        for row, cid in enumerate(client_ids):
            self._submissions[cid] = masked[row]
        return masked

    # ------------------------------------------------------------------
    def finalize(self) -> list[int]:
        """Unmask and return the exact sum over all *submitting* clients.

        Raises :class:`SecureAggregationError` if fewer than ``threshold``
        clients submitted (mask recovery would be impossible -- and, in the
        real protocol, privacy would be at risk).  A failed finalize leaves
        the session closed: calling it again re-raises without re-counting
        the failure metric.
        """
        if self._finalized:
            raise SecureAggregationError("session already finalized")
        survivors = sorted(self._submissions)
        try:
            with finalize_span(
                self.n_clients, len(survivors), self.threshold, count_failure=not self._failed
            ):
                submitted = np.zeros((1, self.n_clients), dtype=bool)
                submitted[0, survivors] = True
                total = self._group.unmask(
                    submitted,
                    np.stack([self._submissions[cid] for cid in survivors]),
                    np.zeros(len(survivors), dtype=np.intp),
                )[0]
                self._finalized = True
        except SecureAggregationError:
            self._failed = True
            raise
        return [int(v) for v in self.field.centered_array(total)]

    # ------------------------------------------------------------------
    @property
    def submitted_clients(self) -> tuple[int, ...]:
        return tuple(sorted(self._submissions))

    @property
    def dropout_count(self) -> int:
        return self.n_clients - len(self._submissions)

    @property
    def failed(self) -> bool:
        """True once a below-threshold finalize has closed the session."""
        return self._failed


def secure_sum(
    vectors: np.ndarray,
    submitted: np.ndarray | None = None,
    threshold: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Securely sum integer row-vectors, one per client (one flat session).

    Convenience wrapper: builds a session, batch-submits rows where
    ``submitted`` is true (all, by default), and finalizes.  ``threshold``
    defaults to the 2/3 majority of :func:`default_threshold`.  This is the
    *flat* reference the hierarchical aggregator's twin tests compare
    against; for sharded multi-worker aggregation use
    :func:`repro.federated.secure_agg.hierarchy.hierarchical_secure_sum`.

    Examples
    --------
    >>> import numpy as np
    >>> vecs = np.arange(12).reshape(4, 3)
    >>> secure_sum(vecs, rng=0).tolist()
    [18, 22, 26]
    """
    vecs = np.asarray(vectors)
    if vecs.ndim != 2:
        raise ConfigurationError(f"expected a 2-D (clients x length) array, got {vecs.shape}")
    n_clients, length = vecs.shape
    if submitted is None:
        submitted = np.ones(n_clients, dtype=bool)
    submitted = np.asarray(submitted, dtype=bool)
    if submitted.shape != (n_clients,):
        raise ConfigurationError("submitted mask must have one entry per client")
    if threshold is None:
        threshold = default_threshold(n_clients)
    session = SecureAggregationSession(n_clients, length, threshold, rng=rng)
    ids = np.flatnonzero(submitted)
    session.submit_batch(ids, vecs[ids])
    return np.array(session.finalize(), dtype=np.int64)
