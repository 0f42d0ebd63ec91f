"""Simulated annealing over QUBOs — the paper's solver.

The paper's experiments run on D-Wave's *simulated* annealer, which is
classical single-spin-flip Metropolis annealing with a geometric inverse-
temperature schedule. This module implements the same algorithm with the
NumPy idioms from the HPC guides:

* All reads anneal **simultaneously**: the state is an ``(R, n)`` matrix and
  every Metropolis decision is made for all R reads in one vectorized step.
* Each sweep visits the variables in **graph-colour order**: the interaction
  graph is greedy-coloured once, and every colour class (an independent
  set) is flipped in one vectorized step. No two variables of a class
  interact, so this is exactly the single-flip sweep taken in colour
  order; the purely diagonal §4 QUBOs have a single class.
* Local fields are maintained **incrementally** (rank-k updates on accepted
  flips) instead of being recomputed.
* The kernel runs against either the dense ``(n, n)`` coupling matrix or
  the CSR form (:class:`~repro.qubo.sparse.CsrMatrix`): the sparse path
  replaces each class's dense row update with a CSR row-block product,
  cutting its cost from ``O(R·|class|·n)`` to ``O(R·nnz(class))`` while
  preserving the exact flip/accept order — results are bit-identical to
  the dense path at a fixed seed for integer-coefficient models. Each
  class's index, diagonal and (pre-transposed) row block are prepared
  once per call, outside the sweep loop.
* **Coupling-free** models (most §4 QUBOs: ``str.len``, equality and
  character constraints are purely diagonal) skip the colouring and the
  fields: a flip of variable *i* costs exactly ``±d_i``, so the Metropolis
  acceptance probabilities form a precomputed ``(sweeps, distinct |d|)``
  table and a sweep is a compare, one ``rng.random(k)`` and a table
  gather over all ``R · n`` entries.

Both specialisations make the same accept/reject decisions from the same
``rng.random(k)`` draws, in the same order, as the plain per-class sweep
(mask, draw, ``exp`` per hot entry): states, energies and the caller's
Generator state are bit-identical to it at every seed
(``tests/anneal/test_kernel_pins.py``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from repro.anneal.base import Sampler, resolve_initial_states
from repro.anneal.sampleset import SampleSet
from repro.anneal.schedule import (
    default_beta_range,
    geometric_schedule,
    linear_schedule,
)
from repro.qubo.model import QuboModel
from repro.qubo.sparse import CsrMatrix, has_any_coupling, initial_local_fields
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["SimulatedAnnealingSampler"]

#: Exponent clamp: exp(-700) ~ 1e-304 already lies below every nonzero
#: ``rng.random()`` draw (multiples of 2**-53); the clamp only keeps exp()
#: clear of underflow.
_EXP_CLIP = 700.0


class SimulatedAnnealingSampler(Sampler):
    """Multi-read, vectorized single-flip Metropolis annealer.

    Parameters (per ``sample_model`` call)
    --------------------------------------
    num_reads:
        Number of independent anneals (default 32).
    num_sweeps:
        Sweeps per anneal; each sweep proposes one flip per variable, one
        colour class at a time (default 256).
    beta_range:
        ``(beta_hot, beta_cold)``; default derived from the model's energy
        scales (see :func:`~repro.anneal.schedule.default_beta_range`).
    beta_schedule:
        ``"geometric"`` (default), ``"linear"``, or an explicit array of
        per-sweep betas (overrides *beta_range*/*num_sweeps*).
    coupling_mode:
        ``"auto"`` (default), ``"dense"``, or ``"sparse"`` — forwarded to
        :meth:`~repro.qubo.model.QuboModel.sampler_form`. Auto picks the
        CSR kernels for large sparse models (every §4 string QUBO); the
        forced modes exist for benchmarking and the bit-identity tests.
    initial_states:
        Optional ``(num_reads, n)`` array of {0,1} starting points.
    seed:
        RNG seed / Generator.
    """

    parameters = {
        "num_reads": "independent anneals",
        "num_sweeps": "sweeps per anneal",
        "beta_range": "(hot, cold) inverse temperatures",
        "beta_schedule": "'geometric' | 'linear' | explicit array",
        "coupling_mode": "'auto' | 'dense' | 'sparse' matrix form",
        "initial_states": "optional (R, n) starting states",
        "seed": "RNG seed",
    }

    def sample_model(
        self,
        model: QuboModel,
        *,
        num_reads: int = 32,
        num_sweeps: int = 256,
        beta_range: Optional[Tuple[float, float]] = None,
        beta_schedule: Union[str, Sequence[float], np.ndarray] = "geometric",
        coupling_mode: str = "auto",
        initial_states: Optional[np.ndarray] = None,
        seed: SeedLike = None,
        **unknown: Any,
    ) -> SampleSet:
        if unknown:
            raise TypeError(f"unknown sampler parameters: {sorted(unknown)}")
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        rng = ensure_rng(seed)
        n = model.num_variables
        if n == 0:
            states = np.zeros((num_reads, 0), dtype=np.int8)
            return SampleSet(states, np.full(num_reads, model.offset))

        diag, coupling = model.sampler_form(mode=coupling_mode)
        betas = self._resolve_schedule(
            beta_schedule, beta_range, num_sweeps, diag, coupling
        )

        states = resolve_initial_states(initial_states, num_reads, n, rng)
        if has_any_coupling(coupling):
            classes = self._color_classes(model)
            self._anneal_colored(states, diag, coupling, betas, classes, rng)
        else:
            self._anneal_diagonal(states, diag, betas, rng)

        energies = model.energies(states)
        return SampleSet(
            states,
            energies,
            info={
                "sampler": "SimulatedAnnealingSampler",
                "num_sweeps": int(betas.shape[0]),
                "beta_range": (float(betas[0]), float(betas[-1])),
                "coupling_form": (
                    "sparse" if isinstance(coupling, CsrMatrix) else "dense"
                ),
            },
        )

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #

    @staticmethod
    def _anneal_diagonal(
        states: np.ndarray,
        diag: np.ndarray,
        betas: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Metropolis sweeps of a coupling-free model. Mutates *states*.

        Without couplings every variable is its own neighbourhood, so the
        sweep is the single-class colour sweep over all ``R · n`` entries,
        and a flip of variable *i* costs ``±d_i``. An entry is *hot*
        (``delta_e > 0``) exactly when its bit holds the variable's ground
        value (1 where ``d < 0``, 0 where ``d > 0``, never where ``d = 0``)
        and then ``delta_e = |d_i|``. The acceptance probabilities are
        therefore a ``(sweeps, distinct |d|)`` table built once, and each
        sweep draws ``rng.random(k)`` for the same ``k`` hot entries in the
        same row-major order as the per-class kernel: the decisions, the
        states and the Generator's final state are bit-identical to it.
        """
        num_reads = states.shape[0]
        magnitudes, codes = np.unique(np.abs(diag), return_inverse=True)
        table = np.exp(
            np.clip(-betas[:, None] * magnitudes[None, :], -_EXP_CLIP, 0.0)
        )
        ground = np.where(diag < 0.0, 1, np.where(diag > 0.0, 0, 2))
        ground = np.tile(ground.astype(np.int8), num_reads)
        codes = np.tile(codes.reshape(-1), num_reads)
        flat = states.reshape(-1)  # a view: states is C-contiguous
        for probabilities in table:
            hot = flat == ground
            index = hot.nonzero()[0]
            accept = np.logical_not(hot, out=hot)
            if index.size:
                accept[index] = rng.random(index.size) < probabilities[codes[index]]
            flat ^= accept

    @staticmethod
    def _anneal_colored(
        states: np.ndarray,
        diag: np.ndarray,
        coupling: Union[np.ndarray, CsrMatrix],
        betas: np.ndarray,
        classes: Sequence[np.ndarray],
        rng: np.random.Generator,
    ) -> None:
        """Independent-set batched updates. Mutates *states*.

        Within one color class no two variables interact, so flipping them
        simultaneously is exactly equivalent to flipping them one at a time.
        Everything a class needs is prepared once, before the sweep loop:
        its index (a slice when the class is contiguous), its diagonal, and
        its block of coupling rows. The sparse branch keeps that block as
        the *transposed* CSR row block and applies the rank-k field update
        as ``(block.T @ delta.T).T`` — the exact product SciPy evaluates
        for ``delta @ block``, without building a new transposed view on
        every call — at ``O(R · nnz(class))`` instead of
        ``O(R · |class| · n)``, with identical RNG consumption.
        """
        fields = initial_local_fields(states, coupling)
        sparse = isinstance(coupling, CsrMatrix)
        plan = []
        for cls in classes:
            index = _class_index(cls)
            if sparse:
                rows = coupling.row_block(cls).T
            else:
                rows = np.ascontiguousarray(coupling[index, :])
            plan.append((index, diag[index][None, :], rows))
        for beta in betas:
            for index, local_diag, rows in plan:
                dx = 1.0 - 2.0 * states[:, index]
                delta_e = dx * (local_diag + fields[:, index])
                accept = delta_e <= 0.0
                hot = ~accept
                k = np.count_nonzero(hot)
                if k:
                    # delta_e > 0 here: an upper clamp at 0 would never bind.
                    log_p = np.maximum(-beta * delta_e[hot], -_EXP_CLIP)
                    accept[hot] = rng.random(k) < np.exp(log_p)
                if not accept.any():
                    continue
                states[:, index] ^= accept
                # Rank-k update: only accepted flips contribute.
                delta = dx * accept
                if sparse:
                    fields += (rows @ delta.T).T
                else:
                    fields += delta @ rows

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve_schedule(
        beta_schedule: Union[str, Sequence[float], np.ndarray],
        beta_range: Optional[Tuple[float, float]],
        num_sweeps: int,
        diag: np.ndarray,
        coupling: np.ndarray,
    ) -> np.ndarray:
        if isinstance(beta_schedule, str):
            hot, cold = (
                beta_range if beta_range is not None else default_beta_range(diag, coupling)
            )
            if beta_schedule == "geometric":
                return geometric_schedule(hot, cold, num_sweeps)
            if beta_schedule == "linear":
                return linear_schedule(hot, cold, num_sweeps)
            raise ValueError(
                f"beta_schedule must be 'geometric', 'linear' or an array, got {beta_schedule!r}"
            )
        betas = np.asarray(beta_schedule, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("explicit beta schedule must be a non-empty 1-d array")
        if np.any(betas <= 0):
            raise ValueError("explicit beta schedule must be positive")
        return betas

    @staticmethod
    def _color_classes(model: QuboModel) -> list:
        """Greedy-color the interaction graph into independent sets."""
        import networkx as nx

        graph = model.interaction_graph()
        coloring = nx.greedy_color(graph, strategy="largest_first")
        num_colors = max(coloring.values(), default=-1) + 1
        classes = [
            np.array(sorted(v for v, c in coloring.items() if c == color), dtype=np.int64)
            for color in range(num_colors)
        ]
        return [cls for cls in classes if cls.size]


def _class_index(cls: np.ndarray) -> Union[slice, np.ndarray]:
    """A sorted colour class as a slice when contiguous (views, not copies)."""
    first, last = int(cls[0]), int(cls[-1])
    if last - first + 1 == cls.size:
        return slice(first, last + 1)
    return cls
