"""Cohort selection: eligibility filtering and minimum-size enforcement.

Selective queries ("restricting eligibility to clients in a particular
geography", Section 4.3) filter the population by attribute predicates,
and privacy policy requires "a minimum cohort size": a query whose
eligible population is too small must not run.  :class:`CohortSelector`
implements both, plus uniform sub-sampling when a target cohort size is
requested.

Selection is index-based: :meth:`CohortSelector.select_indices` draws
*positions* into a :class:`~repro.core.client_plane.ClientBatch`, so a
million-client draw touches only the chosen rows -- no eligible-list copy
when no predicate is set, and O(cohort) instead of O(population)
materialization when subsampling.  Eligibility is a callable that takes
the batch and returns a boolean mask over its clients;
:func:`attribute_equals` builds one over an attribute column.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.client_plane import ClientBatch
from repro.exceptions import CohortTooSmallError, ConfigurationError
from repro.rng import ensure_rng

__all__ = ["CohortSelector", "attribute_equals"]

#: Eligibility: the batch in, one boolean per client out.
Eligibility = Callable[[ClientBatch], np.ndarray]


def attribute_equals(key: str, value: object) -> Eligibility:
    """Eligibility mask: clients whose attribute column ``key`` equals ``value``.

    A batch without that column makes every client ineligible rather than
    erroring -- a fleet always contains devices that never reported the
    attribute.
    """

    def mask(batch: ClientBatch) -> np.ndarray:
        column = batch.attributes.get(key)
        if column is None:
            return np.zeros(len(batch), dtype=bool)
        return np.asarray(column == value, dtype=bool)

    return mask


class CohortSelector:
    """Select a query cohort from the client population.

    Parameters
    ----------
    min_cohort_size:
        Queries whose *eligible* population (or requested cohort) is below
        this bound raise :class:`CohortTooSmallError`.

    Examples
    --------
    >>> pop = ClientBatch.from_values(
    ...     np.arange(10.0), attributes={"geo": np.array(["eu", "us"] * 5)}
    ... )
    >>> selector = CohortSelector(min_cohort_size=3)
    >>> selector.select_indices(pop, attribute_equals("geo", "us")).tolist()
    [1, 3, 5, 7, 9]
    """

    def __init__(self, min_cohort_size: int = 1) -> None:
        if min_cohort_size < 1:
            raise ConfigurationError(f"min_cohort_size must be >= 1, got {min_cohort_size}")
        self.min_cohort_size = min_cohort_size

    def select_indices(
        self,
        population: ClientBatch,
        eligibility: Eligibility | None = None,
        cohort_size: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw cohort *positions* into ``population`` (int64 array).

        Filters by eligibility, enforces the minimum, and -- only when
        subsampling -- draws one ``gen.choice`` over the eligible count.
        With no eligibility the eligible set is the whole population and no
        per-client pass or copy happens at all.  Raises
        :class:`ConfigurationError` unless ``eligibility`` returns a boolean
        array with one entry per client, and :class:`CohortTooSmallError` if
        either the eligible population or the requested cohort would
        violate the minimum size.
        """
        n_population = len(population)
        eligible_idx: np.ndarray | None = None  # None == all of population
        n_eligible = n_population
        if eligibility is not None:
            mask = np.asarray(eligibility(population))
            if mask.dtype != np.bool_ or mask.shape != (n_population,):
                raise ConfigurationError(
                    f"eligibility must return a boolean mask of shape ({n_population},), "
                    f"got {mask.dtype} of shape {mask.shape}"
                )
            eligible_idx = np.flatnonzero(mask)
            n_eligible = int(eligible_idx.size)
        if n_eligible < self.min_cohort_size:
            raise CohortTooSmallError(
                f"only {n_eligible} eligible clients; minimum cohort size is "
                f"{self.min_cohort_size}"
            )
        if cohort_size is not None and cohort_size < self.min_cohort_size:
            raise CohortTooSmallError(
                f"requested cohort of {cohort_size} is below the minimum "
                f"{self.min_cohort_size}"
            )
        if cohort_size is None or cohort_size >= n_eligible:
            if eligible_idx is None:
                return np.arange(n_population, dtype=np.int64)
            return eligible_idx
        gen = ensure_rng(rng)
        picked = gen.choice(n_eligible, size=cohort_size, replace=False)
        if eligible_idx is None:
            return np.asarray(picked, dtype=np.int64)
        return eligible_idx[picked]
