"""GeneratorSystem construction: one validated read-only stack, the same error messages."""
import warnings

import numpy as np
import pytest

from cocyclespan import E2, E3, GeneratorSystem
from cocyclespan.errors import InputError
from cocyclespan.hypotheses import power_system
from cocyclespan.kernels import dense_products
from cocyclespan.linalg import as_matrix


@pytest.mark.parametrize("gens,message", [
    ((), "a system needs at least one generator"),
    ((np.ones(3),), "expected a square matrix, got shape (3,)"),
    ((np.ones((2, 3)),), "expected a square matrix, got shape (2, 3)"),
    ((np.eye(2), [[1.0, 2.0, 3.0]]), "expected a square matrix, got shape (1, 3)"),
    ((np.ones((1, 2, 2)),), "expected a square matrix, got shape (1, 2, 2)"),
    ((np.eye(1),), "dimension 1 outside supported range 2..8"),
    ((np.eye(9),), "dimension 9 outside supported range 2..8"),
    ((np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])), "matrix has non-finite entries"),
    ((np.array([[np.inf, 0.0], [0.0, 1.0]]),), "matrix has non-finite entries"),
    # the first generator that is wrong by itself is named before mixed dimensions
    ((np.eye(3), np.eye(2), np.full((2, 2), np.inf)), "matrix has non-finite entries"),
    ((np.eye(2), np.eye(3)), "generators have mixed dimensions"),
    ((np.eye(2), np.zeros((2, 2))), "generator 2 not invertible (|det| <= 1e-12 sigma_1^d)"),
    (np.zeros((0, 2, 2)), "a system needs at least one generator"),
])
def test_messages(gens, message):
    with pytest.raises(InputError) as err:
        GeneratorSystem(gens)
    assert str(err.value) == message


@pytest.mark.parametrize("gens", [
    ([[1, 0], [0]],),                  # ragged
    (np.eye(2), [[1, 0], [0]]),
    ([["a", "0"], ["0", "1"]],),       # an entry that is no number
    ([[1 + 1j, 0], [0, 1]],),
    ([[10**400, 0], [0, 1]],),         # beyond a float's range
])
def test_unreadable_matrices(gens):
    with pytest.raises(InputError, match="^expected a square matrix of numbers: "):
        GeneratorSystem(gens)


@pytest.mark.parametrize("translations,message", [
    ((np.zeros(2),), "translations must match the generator count"),
    ((np.zeros(3), np.zeros(2)), "translation has wrong size or non-finite entries"),
    ((np.zeros(2), np.array([0.0, np.nan])), "translation has wrong size or non-finite entries"),
])
def test_translation_messages(translations, message):
    with pytest.raises(InputError) as err:
        GeneratorSystem(E2().generators, translations=translations)
    assert str(err.value) == message


def test_generators_are_read_only_views_of_the_stack():
    mats = [np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 3.0]])]
    system = GeneratorSystem(tuple(mats))
    mats[0][0, 0] = 7.0  # the system holds its own copy
    stack = system.stacked()
    assert not stack.flags.writeable and stack.shape == (2, 2, 2) and stack[0, 0, 0] == 2.0
    for i, A in enumerate(system.generators):
        assert not A.flags.writeable and A.flags.c_contiguous
        assert np.shares_memory(A, stack) and A.tobytes() == stack[i].tobytes()
        with pytest.raises(ValueError):
            A[0, 0] = 1.0


def test_an_array_is_read_along_its_first_axis():
    stack = np.stack([np.eye(2), 2 * np.eye(2)])
    from_array, from_tuple = GeneratorSystem(stack), GeneratorSystem(tuple(stack))
    assert from_array.ell == from_tuple.ell == 2
    assert from_array.stacked().tobytes() == from_tuple.stacked().tobytes()
    assert isinstance(from_array.generators, tuple)
    assert [A.tobytes() for A in from_array.generators] == [A.tobytes() for A in stack]


@pytest.mark.parametrize("gens", [
    (np.diag([1e300, 1e-300]), np.eye(2)),  # the bound sigma_1^d overflows
    (np.diag([1e300, 1e300]), np.eye(2)),   # and the determinant too
])
def test_gate_decides_an_overflowing_bound_silently(gens):
    # an infinite bound fails the gate, as it always did, and numpy says nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as err:
            GeneratorSystem(gens)
    assert str(err.value) == "generator 1 not invertible (|det| <= 1e-12 sigma_1^d)"


def test_nested_lists_and_integers_are_read_as_floats():
    system = GeneratorSystem(([[2, 1], [0, 1]], ((1, 0), (1, 3))))
    assert system.stacked().dtype == np.float64
    assert system.stacked().tobytes() == np.array([[[2.0, 1.0], [0.0, 1.0]],
                                                   [[1.0, 0.0], [1.0, 3.0]]]).tobytes()


@pytest.mark.parametrize("t", [1, 2, 3, 5])
def test_power_system_products_keep_their_bits(t):
    system = E3()
    prods = dense_products(system.stacked(), t)
    power = power_system(system, t)
    assert power.stacked().tobytes() == prods.tobytes()
    # the per-generator checks the stack replaced see the same matrices
    for A, P in zip(power.generators, prods):
        assert A.tobytes() == as_matrix(P).tobytes()
