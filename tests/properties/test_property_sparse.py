"""Properties of the sparse (CSR) kernel path.

Two layers of guarantees:

* **energies** — ``qubo_energies_csr`` agrees with the dense kernel to
  1e-9 on arbitrary random models (floating-point associativity is the
  only difference), and *exactly* on integer-coefficient string models;
* **sampling** — at a fixed seed, the sparse incremental-field kernels
  return sample sets **bit-identical** to the dense ones, across all three
  sweep modes and across the tabu / greedy samplers, on the paper's string
  QUBOs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anneal.greedy import SteepestDescentSampler
from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.anneal.tabu import TabuSampler
from repro.core import PalindromeGeneration, StringEquality
from repro.qubo.energy import qubo_energies
from repro.qubo.model import QuboModel
from repro.qubo.sparse import qubo_energies_csr, sparse_sampler_form


@st.composite
def coefficient_dicts(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            max_size=16,
        )
    )
    offset = draw(st.floats(-3, 3, allow_nan=False))
    return n, entries, offset


class TestEnergyEquivalence:
    @given(coefficient_dicts(), st.integers(0, 2**31 - 1))
    def test_sparse_matches_dense_energies(self, problem, state_seed):
        n, entries, offset = problem
        model = QuboModel(n, entries, offset=offset)
        diag, csr = sparse_sampler_form(model.to_dict(), n)
        states = np.random.default_rng(state_seed).integers(0, 2, size=(16, n))
        dense = qubo_energies(states, model.to_dense(), offset)
        sparse = qubo_energies_csr(states, diag, csr, offset)
        np.testing.assert_allclose(sparse, dense, atol=1e-9)

    @given(st.integers(2, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_exact_on_integer_palindrome_models(self, length, state_seed):
        model = PalindromeGeneration(length).build_model()
        diag, csr = sparse_sampler_form(model.to_dict(), model.num_variables)
        states = np.random.default_rng(state_seed).integers(
            0, 2, size=(8, model.num_variables)
        )
        dense = qubo_energies(states, model.to_dense(), model.offset)
        sparse = qubo_energies_csr(states, diag, csr, model.offset)
        np.testing.assert_array_equal(sparse, dense)


def _assert_identical(dense_set, sparse_set):
    np.testing.assert_array_equal(dense_set.states, sparse_set.states)
    np.testing.assert_array_equal(dense_set.energies, sparse_set.energies)
    np.testing.assert_array_equal(
        dense_set.num_occurrences, sparse_set.num_occurrences
    )


def _string_models():
    return [
        PalindromeGeneration(8).build_model(),
        StringEquality("bit-identical").build_model(),
    ]


class TestKernelBitIdentity:
    def test_sa_sparse_identical_to_dense(self):
        for model in _string_models():
            runs = {}
            for mode in ("dense", "sparse"):
                runs[mode] = SimulatedAnnealingSampler().sample_model(
                    model,
                    num_reads=12,
                    num_sweeps=80,
                    coupling_mode=mode,
                    seed=42,
                )
                assert runs[mode].info["coupling_form"] == mode
            _assert_identical(runs["dense"], runs["sparse"])

    def test_tabu_sparse_identical_to_dense(self):
        model = PalindromeGeneration(6).build_model()
        dense = TabuSampler().sample_model(
            model, num_reads=6, seed=11, coupling_mode="dense"
        )
        sparse = TabuSampler().sample_model(
            model, num_reads=6, seed=11, coupling_mode="sparse"
        )
        _assert_identical(dense, sparse)

    def test_greedy_sparse_identical_to_dense(self):
        model = PalindromeGeneration(6).build_model()
        dense = SteepestDescentSampler().sample_model(
            model, num_reads=6, seed=12, coupling_mode="dense"
        )
        sparse = SteepestDescentSampler().sample_model(
            model, num_reads=6, seed=12, coupling_mode="sparse"
        )
        _assert_identical(dense, sparse)

    def test_auto_mode_picks_sparse_and_stays_identical(self):
        # 64 characters -> 448 variables: firmly in the auto-sparse regime.
        model = PalindromeGeneration(64).build_model()
        auto = SimulatedAnnealingSampler().sample_model(
            model, num_reads=4, num_sweeps=30, seed=21
        )
        assert auto.info["coupling_form"] == "sparse"
        dense = SimulatedAnnealingSampler().sample_model(
            model, num_reads=4, num_sweeps=30, seed=21, coupling_mode="dense"
        )
        _assert_identical(dense, auto)


class TestColoredVsSequential:
    def test_colored_solves_palindrome_like_sequential(self):
        # The colour-ordered sweep must land a valid palindrome at the
        # ground energy of the mirrored-pair model.
        formulation = PalindromeGeneration(6)
        model = formulation.build_model()
        ss = SimulatedAnnealingSampler().sample_model(
            model, num_reads=32, num_sweeps=300, seed=33
        )
        decoded = formulation.decode(ss.first.state(ss.variables))
        assert decoded == decoded[::-1]
        assert ss.first.energy == pytest.approx(
            formulation.ground_energy(), abs=1e-9
        )
