import numpy as np
import pytest

from ostbc_blind import (kernel, matrix_from_underline, overline, underline,
                         unvec, vec)
from ostbc_blind.embed import _kernels
from oracles import kron


class TestVec:
    def test_column_major(self):
        np.testing.assert_array_equal(vec(np.array([[1, 2], [3, 4]])),
                                      [1, 3, 2, 4])

    def test_zero(self):
        np.testing.assert_array_equal(vec(np.zeros((2, 3))), np.zeros(6))

    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(unvec(vec(m), 3, 2), m)

    def test_matrix_product_identity(self, rng):
        # vec(AB) = (B^T (x) I_m) vec(A)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        lhs = vec(a @ b)
        rhs = kron(b.T, np.eye(3)) @ vec(a)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestUnderline:
    def test_scalar(self):
        np.testing.assert_array_equal(underline(np.array([[2.0 + 3.0j]])),
                                      [2.0, 3.0])

    def test_zero(self):
        np.testing.assert_array_equal(underline(np.zeros((2, 2), dtype=complex)),
                                      np.zeros(8))

    def test_length(self, rng):
        p = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert underline(p).shape == (12,)

    def test_real_linear(self, rng):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        lhs = underline(1.7 * a - 0.3 * b)
        np.testing.assert_allclose(lhs, 1.7 * underline(a) - 0.3 * underline(b),
                                   rtol=0, atol=1e-12)

    def test_inner_product_identity(self, rng):
        # underline(A)^T underline(B) = (1/2) tr{A^H B + B^H A}
        for _ in range(20):
            a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            lhs = underline(a) @ underline(b)
            rhs = 0.5 * np.trace(a.conj().T @ b + b.conj().T @ a).real
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_injective(self, rng):
        p = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        np.testing.assert_array_equal(matrix_from_underline(underline(p), 4, 3), p)

    def test_matrix_product_identity(self, rng):
        # underline(AB) = (I_p (x) overline(A)) underline(B)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        lhs = underline(a @ b)
        rhs = kron(np.eye(2), overline(a)) @ underline(b)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestOverline:
    def test_imaginary_unit(self):
        np.testing.assert_array_equal(overline(np.array([[1j]])),
                                      [[0, -1], [1, 0]])

    def test_conjugate_transpose(self, rng):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        np.testing.assert_allclose(overline(a.conj().T), overline(a).T,
                                   rtol=0, atol=1e-12)

    def test_product_homomorphism(self, rng):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        np.testing.assert_allclose(overline(a @ b), overline(a) @ overline(b),
                                   rtol=0, atol=1e-12)


class TestKron:
    def test_identities(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_mixed_product(self, rng):
        a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
        np.testing.assert_allclose(kron(a, b) @ kron(c, d),
                                   kron(a @ c, b @ d), rtol=0, atol=1e-12)

    def test_scalar(self, rng):
        b = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(kron(np.array([[2.0]]), b), 2.0 * b)


class TestNullSpace:
    def test_full_rank_empty(self):
        assert kernel(np.eye(3), 1e-9)[0].shape == (3, 0)

    def test_zero_matrix_identity_basis(self):
        np.testing.assert_array_equal(kernel(np.zeros((2, 2)), 1e-9)[0],
                                      np.eye(2))

    def test_rank_one(self):
        ns, _ = kernel(np.ones((2, 2)), 1e-9)
        assert ns.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        # same line, sign-insensitive
        np.testing.assert_allclose(np.outer(ns[:, 0], ns[:, 0]),
                                   np.outer(expected, expected),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, np.inf, np.nan])
    def test_rejects_nonpositive_tol(self, bad):
        with pytest.raises(ValueError):
            kernel(np.eye(2), bad)

    def test_wide_matrix(self, rng):
        m = rng.standard_normal((2, 5))
        ns, _ = kernel(m, 1e-9)
        assert ns.shape == (5, 3)
        np.testing.assert_allclose(m @ ns, 0, rtol=0, atol=1e-12)

    def test_stack_of_one_dimension_is_one_array(self, rng):
        m = rng.standard_normal((4, 2, 5))
        dims, bases, s = _kernels(m, 1e-9)
        np.testing.assert_array_equal(dims, [3, 3, 3, 3])
        assert bases.shape == (4, 5, 3) and s.shape == (4, 2)
        for t in range(4):
            assert bases[t].flags.c_contiguous
            np.testing.assert_array_equal(bases[t], kernel(m[t], 1e-9)[0])

    def test_stack_of_mixed_dimensions_has_no_bases(self):
        m = np.stack([np.zeros((3, 3)), np.eye(3)])
        dims, bases, s = _kernels(m, 1e-9)
        np.testing.assert_array_equal(dims, [3, 0])
        assert bases is None
        np.testing.assert_array_equal(s, [[0, 0, 0], [1, 1, 1]])

    def test_contract_on_random_low_rank(self, rng):
        for _ in range(10):
            r = int(rng.integers(1, 4))
            m = rng.standard_normal((6, r)) @ rng.standard_normal((r, 5))
            ns, _ = kernel(m, 1e-9)
            assert ns.shape == (5, 5 - r)
            np.testing.assert_allclose(ns.T @ ns, np.eye(5 - r),
                                       rtol=0, atol=1e-12)
            smax = np.linalg.svd(m, compute_uv=False)[0]
            assert np.linalg.norm(m @ ns, 2) <= 1e-9 * smax
