"""Sampler interface.

Every solver in the library — simulated annealing, SQA, exact enumeration,
tabu, the simulated QPU, and all composites — implements
:class:`Sampler.sample_model`. Convenience entry points accept raw QUBO
dicts, Ising dicts, or labelled BQMs and normalize to the index-based
:class:`~repro.qubo.model.QuboModel` fast path.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from repro.anneal.sampleset import SampleSet
from repro.qubo.bqm import BinaryQuadraticModel
from repro.qubo.model import QuboModel

__all__ = ["Sampler", "resolve_initial_states"]


def resolve_initial_states(
    initial_states: Optional[np.ndarray],
    num_reads: int,
    num_variables: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Validated ``(num_reads, n)`` int8 {0,1} starting states.

    ``None`` draws uniform random states from *rng*; a 1-d array is
    broadcast to every read. Shared by every sampler that accepts
    ``initial_states`` so they all enforce the same contract — non-binary
    values are rejected here rather than silently escaping the {0,1}
    domain through the kernels' ``^= 1`` flips.
    """
    if initial_states is None:
        return rng.integers(0, 2, size=(num_reads, num_variables), dtype=np.int8)
    arr = np.asarray(initial_states)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("initial_states must be 0/1 valued")
    arr = np.array(arr, dtype=np.int8, copy=True)
    if arr.ndim == 1:
        arr = np.broadcast_to(arr, (num_reads, num_variables)).copy()
    if arr.shape != (num_reads, num_variables):
        raise ValueError(
            f"initial_states shape {arr.shape} != ({num_reads}, {num_variables})"
        )
    return arr


class Sampler(abc.ABC):
    """Abstract base for everything that turns a QUBO into a SampleSet."""

    #: Human-readable parameter documentation, for introspection.
    parameters: Dict[str, str] = {}

    @abc.abstractmethod
    def sample_model(self, model: QuboModel, **params: Any) -> SampleSet:
        """Sample an index-based QUBO; columns are labelled ``0..n-1``."""

    # ------------------------------------------------------------------ #
    # convenience entry points
    # ------------------------------------------------------------------ #

    def sample_qubo(
        self, q: Mapping[Tuple[Hashable, Hashable], float], **params: Any
    ) -> SampleSet:
        """Sample a dict-form QUBO ``{(u, v): coeff}`` with arbitrary labels."""
        bqm = BinaryQuadraticModel(vartype="BINARY")
        for (u, v), coeff in q.items():
            if u == v:
                bqm.add_variable(u, coeff)
            else:
                bqm.add_interaction(u, v, coeff)
        return self.sample_bqm(bqm, **params)

    def sample_ising(
        self,
        h: Mapping[Hashable, float],
        j: Mapping[Tuple[Hashable, Hashable], float],
        **params: Any,
    ) -> SampleSet:
        """Sample an Ising model; the returned samples are in SPIN values."""
        bqm = BinaryQuadraticModel.from_ising(h, j)
        result = self.sample_bqm(bqm, **params)
        # sample_bqm works in BINARY space; map the states back to spins.
        spins = (2 * result.states.astype(int) - 1).astype("int8")
        return SampleSet(
            spins,
            result.energies,
            variables=result.variables,
            num_occurrences=result.num_occurrences,
            info=result.info,
        )

    def sample_bqm(self, bqm: BinaryQuadraticModel, **params: Any) -> SampleSet:
        """Sample a labelled BQM, restoring the labels on the way out."""
        model, order = bqm.to_qubo_model()
        result = self.sample_model(model, **params)
        return SampleSet(
            result.states,
            result.energies,
            variables=order,
            num_occurrences=result.num_occurrences,
            info=result.info,
        )
