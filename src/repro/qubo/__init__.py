"""QUBO / binary-quadratic-model substrate.

This subpackage is a from-scratch replacement for the parts of D-Wave's
``dimod`` package that the paper relies on:

* :class:`~repro.qubo.model.QuboModel` — an index-based QUBO over variables
  ``0..n-1``, with dict storage, dense/sparse matrix views, and vectorized
  energy evaluation.
* :class:`~repro.qubo.bqm.BinaryQuadraticModel` — labelled variables, SPIN or
  BINARY vartype, offset tracking, and conversions to/from ``QuboModel``.
* :mod:`~repro.qubo.ising` — exact QUBO ↔ Ising transforms.
* :mod:`~repro.qubo.energy` — batched energy kernels (the hot path shared by
  every sampler).
* :mod:`~repro.qubo.sparse` — CSR sampler form and ``O(R · nnz)`` kernels
  for the bit-local string QUBOs (auto-selected by
  ``QuboModel.sampler_form(mode="auto")``).
* :mod:`~repro.qubo.algebra` — model composition: add, scale, shift, relabel,
  fix variables.
"""

from repro.qubo.vartypes import BINARY, SPIN, Vartype
from repro.qubo.model import QuboModel
from repro.qubo.bqm import BinaryQuadraticModel
from repro.qubo.ising import ising_to_qubo, qubo_to_ising
from repro.qubo.energy import (
    qubo_energies,
    qubo_energy,
    ising_energies,
    ising_energy,
)
from repro.qubo.algebra import (
    add_models,
    fix_variables,
    relabel_variables,
    scale_model,
)
from repro.qubo.matrix import (
    dense_from_dict,
    dict_from_dense,
    to_symmetric,
    to_upper_triangular,
)
from repro.qubo.sparse import (
    CsrMatrix,
    SparseStats,
    coupling_density,
    csr_from_coefficients,
    prefers_sparse,
    qubo_energies_csr,
    sparse_sampler_form,
    sparse_stats,
)
from repro.qubo.hubo import HuboModel, quadratize
from repro.qubo.serialization import load_model, save_model

__all__ = [
    "BINARY",
    "CsrMatrix",
    "SparseStats",
    "coupling_density",
    "csr_from_coefficients",
    "prefers_sparse",
    "qubo_energies_csr",
    "sparse_sampler_form",
    "sparse_stats",
    "HuboModel",
    "quadratize",
    "load_model",
    "save_model",
    "SPIN",
    "BinaryQuadraticModel",
    "QuboModel",
    "Vartype",
    "add_models",
    "dense_from_dict",
    "dict_from_dense",
    "fix_variables",
    "ising_energies",
    "ising_energy",
    "ising_to_qubo",
    "qubo_energies",
    "qubo_energy",
    "qubo_to_ising",
    "relabel_variables",
    "scale_model",
    "to_symmetric",
    "to_upper_triangular",
]
