"""Tabu search sampler — the strongest classical baseline in the suite.

Best-admissible-move local search with a recency-based tabu list and a
standard aspiration criterion (a tabu move is allowed when it would improve
on the best energy seen by that read). All reads advance in lockstep so each
search step is a handful of vectorized array operations.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.anneal.base import Sampler
from repro.anneal.sampleset import SampleSet
from repro.qubo.model import QuboModel
from repro.qubo.sparse import CsrMatrix, has_any_coupling, initial_local_fields
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["TabuSampler"]


class TabuSampler(Sampler):
    """Multi-start tabu search over the QUBO.

    Runs against either the dense or the CSR coupling form
    (``coupling_mode``, default ``"auto"``); accepted moves update the
    local fields through the flipped variable's CSR row slice on the
    sparse path, preserving the dense path's move order exactly.
    """

    parameters = {
        "num_reads": "independent searches",
        "num_steps": "moves per search (default 8 n)",
        "tenure": "tabu tenure in moves (default min(20, n-1), 0 when n == 1)",
        "coupling_mode": "'auto' | 'dense' | 'sparse' matrix form",
        "seed": "RNG seed",
    }

    def sample_model(
        self,
        model: QuboModel,
        *,
        num_reads: int = 16,
        num_steps: Optional[int] = None,
        tenure: Optional[int] = None,
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
        steps = num_steps if num_steps is not None else 8 * n
        if steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {steps}")
        if tenure is None:
            # n == 1 admits only tenure 0 (the [0, n) check below): with a
            # single variable there is nothing to forbid without
            # deadlocking the search, so the degenerate default is 0.
            tenure = max(min(20, n - 1), 0)
        if not (0 <= tenure < max(n, 1)):
            raise ValueError(f"tenure must lie in [0, n), got {tenure}")

        diag, coupling = model.sampler_form(mode=coupling_mode)
        has_coupling = has_any_coupling(coupling)
        sparse = isinstance(coupling, CsrMatrix)
        states = rng.integers(0, 2, size=(num_reads, n), dtype=np.int8)
        fields = (
            initial_local_fields(states, coupling)
            if has_coupling
            else np.zeros((num_reads, n))
        )
        energies = model.energies(states)

        best_states = states.copy()
        best_energies = energies.copy()
        # expire[r, i] = step index at which variable i stops being tabu for read r.
        expire = np.zeros((num_reads, n), dtype=np.int64)
        rows = np.arange(num_reads)

        for step in range(steps):
            dx = 1.0 - 2.0 * states
            delta_e = dx * (diag[None, :] + fields)
            candidate = energies[:, None] + delta_e
            # Aspiration: tabu moves stay admissible if they beat the best.
            blocked = (expire > step) & (candidate >= best_energies[:, None] - 1e-12)
            masked = np.where(blocked, np.inf, delta_e)
            move = np.argmin(masked, axis=1)
            move_delta = masked[rows, move]
            # A read where everything is blocked skips this step.
            ok = np.isfinite(move_delta)
            if ok.any():
                r = rows[ok]
                c = move[ok]
                dxa = dx[r, c]
                states[r, c] ^= 1
                energies[r] += move_delta[ok]
                if has_coupling:
                    if sparse:
                        # One flipped variable per read: row-slice updates.
                        for rr, cc, dd in zip(
                            r.tolist(), c.tolist(), dxa.tolist()
                        ):
                            cols, vals = coupling.row(cc)
                            fields[rr, cols] += dd * vals
                    else:
                        fields[r] += dxa[:, None] * coupling[c, :]
                expire[r, c] = step + 1 + tenure
                improved = energies[r] < best_energies[r] - 1e-12
                if improved.any():
                    ri = r[improved]
                    best_states[ri] = states[ri]
                    best_energies[ri] = energies[ri]

        # Report the best state each read visited, not where it ended.
        final_energies = model.energies(best_states)
        return SampleSet(
            best_states,
            final_energies,
            info={
                "sampler": "TabuSampler",
                "num_steps": steps,
                "tenure": tenure,
                "coupling_form": "sparse" if sparse else "dense",
            },
        )
