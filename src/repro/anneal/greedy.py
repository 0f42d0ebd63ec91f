"""Steepest-descent sampler.

Deterministic local search: every read repeatedly takes the single flip with
the largest energy decrease until no flip improves. Useful standalone as a
baseline and as a cheap post-processing pass after annealing (the role of
D-Wave's ``greedy`` package).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from typing import Union

from repro.anneal.base import Sampler, resolve_initial_states
from repro.anneal.sampleset import SampleSet
from repro.qubo.model import QuboModel
from repro.qubo.sparse import CsrMatrix, has_any_coupling, initial_local_fields
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["SteepestDescentSampler"]


class SteepestDescentSampler(Sampler):
    """Vectorized best-improvement descent from random (or given) starts.

    Supports both coupling forms (``coupling_mode``, default ``"auto"``);
    the sparse path replaces each full-row field update with the flipped
    variable's CSR row slice, preserving the dense descent trajectory.
    """

    parameters = {
        "num_reads": "independent descents",
        "initial_states": "optional (R, n) starting states",
        "max_steps": "safety cap on flips per read (default 16 n)",
        "coupling_mode": "'auto' | 'dense' | 'sparse' matrix form",
        "seed": "RNG seed",
    }

    def sample_model(
        self,
        model: QuboModel,
        *,
        num_reads: int = 32,
        initial_states: Optional[np.ndarray] = None,
        max_steps: Optional[int] = None,
        coupling_mode: str = "auto",
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
            return SampleSet(
                np.zeros((num_reads, 0), dtype=np.int8),
                np.full(num_reads, model.offset),
            )
        diag, coupling = model.sampler_form(mode=coupling_mode)
        has_coupling = has_any_coupling(coupling)
        # Shared validator (also used by SA): rejects non-binary starting
        # states, which would otherwise leave the {0,1} domain through the
        # kernel's ^= 1 flips and score as garbage energies.
        states = resolve_initial_states(initial_states, num_reads, n, rng)
        cap = max_steps if max_steps is not None else 16 * n
        steps = self._descend(states, diag, coupling, has_coupling, cap)
        energies = model.energies(states)
        return SampleSet(
            states,
            energies,
            info={"sampler": "SteepestDescentSampler", "total_steps": steps},
        )

    @staticmethod
    def _descend(
        states: np.ndarray,
        diag: np.ndarray,
        coupling: Union[np.ndarray, CsrMatrix],
        has_coupling: bool,
        max_steps: int,
    ) -> int:
        """Flip the best variable per read until all reads are local minima.

        Each outer iteration flips at most one variable in every still-active
        read — all reads progress in lockstep, vectorized. Works on either
        coupling form; the sparse branch touches only the CSR row slice of
        each flipped variable.
        """
        num_reads, n = states.shape
        sparse = isinstance(coupling, CsrMatrix)
        fields = (
            initial_local_fields(states, coupling)
            if has_coupling
            else np.zeros_like(states, dtype=np.float64)
        )
        active = np.ones(num_reads, dtype=bool)
        total = 0
        for _ in range(max_steps):
            dx = 1.0 - 2.0 * states
            delta_e = dx * (diag[None, :] + fields)
            best_var = np.argmin(delta_e, axis=1)
            best_delta = delta_e[np.arange(num_reads), best_var]
            active = best_delta < -1e-12
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            cols = best_var[rows]
            dxa = dx[rows, cols]
            states[rows, cols] ^= 1
            if has_coupling:
                if sparse:
                    for rr, cc, dd in zip(
                        rows.tolist(), cols.tolist(), dxa.tolist()
                    ):
                        ccols, cvals = coupling.row(cc)
                        fields[rr, ccols] += dd * cvals
                else:
                    fields[rows] += dxa[:, None] * coupling[cols, :]
            total += rows.size
        return total
