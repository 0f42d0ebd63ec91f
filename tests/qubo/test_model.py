import numpy as np
import pytest

from repro.qubo.model import QuboModel


class TestConstruction:
    def test_empty_model(self):
        m = QuboModel(0)
        assert m.num_variables == 0
        assert m.energies(np.zeros((3, 0))).shape == (3,)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            QuboModel(-1)

    def test_initial_coefficients_folded(self):
        m = QuboModel(3, {(2, 0): 1.0, (0, 2): 1.0})
        assert m.get(0, 2) == 2.0

    def test_out_of_range_initial_coefficient(self):
        with pytest.raises(IndexError):
            QuboModel(2, {(0, 5): 1.0})

    def test_repr(self):
        assert "QuboModel" in repr(QuboModel(3))


class TestAccessors:
    def test_set_and_get_linear(self):
        m = QuboModel(2)
        m.set_linear(1, -2.5)
        assert m.get(1) == -2.5

    def test_add_linear_accumulates(self):
        m = QuboModel(2)
        m.add_linear(0, 1.0)
        m.add_linear(0, 2.0)
        assert m.get(0) == 3.0

    def test_set_overwrites(self):
        m = QuboModel(2)
        m.set_linear(0, 1.0)
        m.set_linear(0, 5.0)
        assert m.get(0) == 5.0

    def test_quadratic_symmetric_key(self):
        m = QuboModel(3)
        m.set_quadratic(2, 0, 4.0)
        assert m.get(0, 2) == 4.0
        assert m.get(2, 0) == 4.0

    def test_set_quadratic_diagonal_rejected(self):
        m = QuboModel(2)
        with pytest.raises(ValueError):
            m.set_quadratic(1, 1, 1.0)

    def test_index_out_of_range(self):
        m = QuboModel(2)
        with pytest.raises(IndexError):
            m.set_linear(2, 1.0)

    def test_num_interactions(self):
        m = QuboModel(3)
        m.set_linear(0, 1.0)
        m.set_quadratic(0, 1, 1.0)
        m.set_quadratic(1, 2, 1.0)
        assert m.num_interactions == 2

    def test_linear_vector(self):
        m = QuboModel(3)
        m.set_linear(1, -7.0)
        np.testing.assert_array_equal(m.linear_vector(), [0.0, -7.0, 0.0])


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m, v: m.set_linear(0, v),
            lambda m, v: m.add_linear(0, v),
            lambda m, v: m.set_quadratic(1, 2, v),
            lambda m, v: m.add_quadratic(2, 1, v),
        ],
        ids=["set_linear", "add_linear", "set_quadratic", "add_quadratic"],
    )
    def test_setters_reject(self, mutate, value):
        m = QuboModel(3, {(0, 0): 1.0, (1, 2): -1.0})
        with pytest.raises(ValueError, match="finite"):
            mutate(m, value)
        assert m.to_dict() == {(0, 0): 1.0, (1, 2): -1.0}

    def test_accumulated_overflow_rejected(self):
        m = QuboModel(2)
        m.add_linear(0, 1e308)
        with pytest.raises(ValueError, match="finite"):
            m.add_linear(0, 1e308)
        assert m.get(0) == 1e308

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_from_dense_rejects(self, value):
        with pytest.raises(ValueError, match="finite"):
            QuboModel.from_dense(np.diag([value, 1.0, -1.0]))
        q = np.zeros((3, 3))
        q[0, 2] = value
        with pytest.raises(ValueError, match="finite"):
            QuboModel.from_dense(q)

    def test_constructor_rejects(self):
        with pytest.raises(ValueError, match="finite"):
            QuboModel(2, {(0, 1): float("nan")})


class TestMatrixViews:
    def test_dense_cache_invalidated_on_mutation(self):
        m = QuboModel(2)
        m.set_linear(0, 1.0)
        first = m.to_dense()
        assert first[0, 0] == 1.0
        m.set_linear(0, 2.0)
        assert m.to_dense()[0, 0] == 2.0

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(0)
        q = np.triu(rng.normal(size=(4, 4)))
        m = QuboModel.from_dense(q, offset=1.5)
        np.testing.assert_allclose(m.to_dense(), q)
        assert m.offset == 1.5

    def test_to_dict_drops_zeros(self):
        m = QuboModel(2)
        m.set_linear(0, 0.0)
        m.set_linear(1, 3.0)
        assert m.to_dict() == {(1, 1): 3.0}

    def test_copy_is_independent(self):
        m = QuboModel(2)
        m.set_linear(0, 1.0)
        clone = m.copy()
        clone.set_linear(0, 9.0)
        assert m.get(0) == 1.0

    def test_sampler_form(self):
        m = QuboModel(2)
        m.set_linear(0, 3.0)
        m.set_quadratic(0, 1, 2.0)
        d, w = m.sampler_form()
        np.testing.assert_array_equal(d, [3.0, 0.0])
        assert w[0, 1] == w[1, 0] == 2.0
        assert w[0, 0] == 0.0


class TestSemantics:
    def test_energy_matches_matrix(self):
        rng = np.random.default_rng(1)
        q = np.triu(rng.normal(size=(5, 5)))
        m = QuboModel.from_dense(q, offset=0.25)
        x = rng.integers(0, 2, size=5)
        expected = float(x @ q @ x) + 0.25
        assert m.energy(x) == pytest.approx(expected)

    def test_equality_semantics(self):
        a = QuboModel(2, {(0, 1): 1.0})
        b = QuboModel(2, {(1, 0): 1.0})
        assert a == b

    def test_inequality_on_offset(self):
        assert QuboModel(1, offset=0.0) != QuboModel(1, offset=1.0)

    def test_interaction_graph(self):
        m = QuboModel(4)
        m.set_quadratic(0, 2, 1.0)
        g = m.interaction_graph()
        assert g.number_of_nodes() == 4
        assert g.has_edge(0, 2)
        assert not g.has_edge(0, 1)

    def test_max_abs_coefficient(self):
        m = QuboModel(2)
        assert m.max_abs_coefficient() == 0.0
        m.set_linear(0, -5.0)
        m.set_quadratic(0, 1, 2.0)
        assert m.max_abs_coefficient() == 5.0
