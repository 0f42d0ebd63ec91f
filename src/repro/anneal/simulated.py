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
  the dense path at a fixed seed for integer-coefficient models.
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

#: Exponent clamp: exp(-700) underflows float64 to 0, so nothing is lost.
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
        has_coupling = has_any_coupling(coupling)

        classes = self._color_classes(model)
        self._anneal_colored(states, diag, coupling, betas, classes, rng, has_coupling)

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
    def _anneal_colored(
        states: np.ndarray,
        diag: np.ndarray,
        coupling: Union[np.ndarray, CsrMatrix],
        betas: np.ndarray,
        classes: Sequence[np.ndarray],
        rng: np.random.Generator,
        has_coupling: bool,
    ) -> None:
        """Independent-set batched updates. Mutates *states*.

        Within one color class no two variables interact, so flipping them
        simultaneously is exactly equivalent to flipping them one at a time.
        The sparse branch performs the rank-k field update through a CSR
        row block per color class (``O(R · nnz(class))`` instead of
        ``O(R · |class| · n)``), with identical RNG consumption.
        """
        num_reads, n = states.shape
        fields = initial_local_fields(states, coupling) if has_coupling else None
        sparse = isinstance(coupling, CsrMatrix)
        # One CSR row block per color class, sliced once outside the sweep
        # loop (SciPy row indexing is not free).
        blocks = (
            [coupling.row_block(cls) for cls in classes]
            if (sparse and has_coupling)
            else None
        )
        for beta in betas:
            for index, cls in enumerate(classes):
                xc = states[:, cls]
                dx = 1.0 - 2.0 * xc
                local = diag[cls][None, :]
                if has_coupling:
                    local = local + fields[:, cls]
                delta_e = dx * local
                accept = delta_e <= 0.0
                hot = ~accept
                if hot.any():
                    log_p = np.clip(-beta * delta_e[hot], -_EXP_CLIP, 0.0)
                    accept[hot] = rng.random(int(hot.sum())) < np.exp(log_p)
                if not accept.any():
                    continue
                flip = accept.astype(np.int8)
                states[:, cls] ^= flip
                if has_coupling:
                    # Rank-k update: only accepted flips contribute.
                    delta = dx * accept
                    if sparse:
                        fields += np.asarray(delta @ blocks[index])
                    else:
                        fields += delta @ coupling[cls, :]

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
