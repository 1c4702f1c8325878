"""The one-bit client message of the federated simulator.

Client state lives columnar in a :class:`~repro.core.client_plane.ClientBatch`
(each client's multiset of observations, its id and its attributes), and
the client half of the protocol -- elicit one value, extract the assigned
bit, perturb it -- runs as chunked kernels in :mod:`repro.core.client_plane`.
:class:`BitReport` is the one-bit message the wire protocol, the fleet and
streaming aggregation carry.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BitReport"]


@dataclass(frozen=True)
class BitReport:
    """One client's wire message: which bit index, and its (noisy) value.

    This is the *entire* private payload the protocol ever sends per value
    -- a single binary digit plus its position.
    """

    client_id: int
    bit_index: int
    bit: int
