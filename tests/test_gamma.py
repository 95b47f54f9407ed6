import numpy as np
import pytest

from ostbc_blind import (build_A, builtin_code, compute_bspace, draw_channel,
                         lift_to_channel, overline, realify, underline,
                         unit_gammas, vec)
from ostbc_blind import subspace
from ostbc_blind.gamma import _channel_kernel_matrices

from oracles import gamma_factored, gamma_sums, kron, unit_gammas_loop


def gamma(code, B):
    """The LK x N stack of gamma_k(B): vec(B) contracted with unit_gammas."""
    return np.tensordot(vec(B), unit_gammas(code), axes=(0, 0))


def gamma_k(code, B, k):
    """The k-th L x N block of :func:`gamma`."""
    return gamma(code, B)[k * code.L:(k + 1) * code.L]


class TestGammaBlocks:
    def test_identity_annihilated(self, code):
        for k in range(code.K):
            block = gamma_k(code, np.eye(code.K), k)
            assert np.linalg.norm(block) <= 1e-14

    def test_scalar_code_always_zero(self, rng):
        code = builtin_code("scalar")
        b = rng.standard_normal((1, 1))
        assert np.linalg.norm(gamma_k(code, b, 0)) == 0.0

    def test_unit_matrix_block_nonzero(self, alamouti):
        e12 = np.zeros((4, 4))
        e12[0, 1] = 1.0
        block = gamma_k(alamouti, e12, 0)
        assert np.linalg.norm(block) > 0.1
        np.testing.assert_allclose(np.vstack([gamma_k(alamouti, e12, k)
                                              for k in range(4)]),
                                   gamma_factored(alamouti, e12),
                                   rtol=0, atol=1e-14)


class TestGammaStack:
    def test_identity(self, code):
        assert np.linalg.norm(gamma(code, np.eye(code.K))) <= 1e-14

    def test_linear(self, code, rng):
        b1 = rng.standard_normal((code.K, code.K))
        b2 = rng.standard_normal((code.K, code.K))
        lhs = gamma(code, 0.7 * b1 - 1.3 * b2)
        rhs = 0.7 * gamma(code, b1) - 1.3 * gamma(code, b2)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_alamouti_generator_is_invariant(self, alamouti):
        c3 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.kron(c3, np.eye(2))
        assert np.linalg.norm(gamma(alamouti, b)) <= 1e-12

    def test_matches_defining_sums(self, code, rng):
        for _ in range(20):
            b = rng.standard_normal((code.K, code.K))
            np.testing.assert_allclose(gamma(code, b), gamma_sums(code, b),
                                       rtol=0, atol=1e-12)

    def test_matches_factored_form(self, code, rng):
        # same map through a completely different assembly
        for _ in range(20):
            b = rng.standard_normal((code.K, code.K))
            np.testing.assert_allclose(gamma(code, b), gamma_factored(code, b),
                                       rtol=0, atol=1e-12)


def identity_operator(code):
    """The invariant-space operator: the channel kernel matrix of H = I_N."""
    return _channel_kernel_matrices(unit_gammas(code), np.eye(code.N))


class TestGammaOperator:
    def test_scalar_zero_operator(self):
        op = identity_operator(builtin_code("scalar"))
        np.testing.assert_array_equal(op, np.zeros((2, 1)))

    def test_alamouti_singular_values(self, alamouti):
        s = np.linalg.svd(identity_operator(alamouti), compute_uv=False)
        above = int(np.sum(s > 1e-9 * s[0]))
        assert above == 12
        assert len(s) - above == 4

    def test_threshold_insensitive_kernel_dim(self, code):
        s = np.linalg.svd(identity_operator(code), compute_uv=False)
        if s[0] == 0.0:
            return  # zero operator: kernel is everything at any threshold
        dims = {int(np.sum(s <= rel * s[0]))
                for rel in (1e-6, 1e-8, 1e-10, 1e-12)}
        assert len(dims) == 1

    def test_real2_kernel_dim(self):
        g = identity_operator(builtin_code("real2"))
        s = np.linalg.svd(g, compute_uv=False)
        assert int(np.sum(s <= 1e-9 * s[0])) == 2

    def test_identity_in_kernel(self, code):
        op = identity_operator(code)
        assert np.linalg.norm(op @ vec(np.eye(code.K))) <= 1e-14

    def test_consistent_with_direct_evaluation(self, code, rng):
        op = identity_operator(code)
        for _ in range(100):
            b = rng.standard_normal((code.K, code.K))
            np.testing.assert_allclose(op @ vec(b),
                                       underline(gamma_sums(code, b)),
                                       rtol=0, atol=1e-13)

    def test_unit_gammas_order_matches_vec(self, code, rng):
        gams = unit_gammas(code)
        b = rng.standard_normal((code.K, code.K))
        recombined = np.tensordot(vec(b), gams, axes=(0, 0))
        np.testing.assert_allclose(recombined, gamma_sums(code, b),
                                   rtol=0, atol=1e-12)


class TestLoopFreeAssembly:
    def test_bit_identical_to_column_loops(self, code, rng):
        gams = unit_gammas_loop(code)
        np.testing.assert_array_equal(unit_gammas(code), gams)
        ch = draw_channel(code.N, 3, rng)
        np.testing.assert_array_equal(
            _channel_kernel_matrices(unit_gammas(code), ch.H0),
            np.column_stack([underline(g @ ch.H0) for g in gams]))


class TestChannelKernelMatrix:
    def test_columns_embed_products(self, code, rng):
        ch = draw_channel(code.N, 2, rng)
        op = _channel_kernel_matrices(unit_gammas(code), ch.H0)
        assert op.shape == (2 * code.L * code.K * 2, code.K ** 2)
        b = rng.standard_normal((code.K, code.K))
        np.testing.assert_allclose(op @ vec(b),
                                   underline(gamma_sums(code, b) @ ch.H0),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 3])
    def test_byte_count(self, code, rng, M, monkeypatch):
        # the kernel pass builds 2 L K min(M, N) x (1 + K(K-1)/2) floats
        # per channel, the images of I and of the skew units, the size the
        # census sizes its passes by
        built = []

        def recording(unit, H0):
            built.append(_channel_kernel_matrices(unit, H0))
            return built[-1]

        monkeypatch.setattr(subspace, "_channel_kernel_matrices", recording)
        compute_bspace(code, draw_channel(code.N, M, rng))
        [op] = built
        K = code.K
        assert op.nbytes == (2 * code.L * K * min(M, code.N)
                             * (1 + K * (K - 1) // 2) * 8)

    def test_realified_block_action(self, code, rng):
        # (I_M (x) overline(block)) underline(H) = underline(block @ H), per block
        M = 2
        ch = draw_channel(code.N, M, rng)
        b = rng.standard_normal((code.K, code.K))
        stacked = gamma(code, b)
        lhs_full = kron(np.eye(M), overline(stacked)) @ underline(ch.H0)
        np.testing.assert_allclose(lhs_full, underline(stacked @ ch.H0),
                                   rtol=0, atol=1e-12)
        for k in range(code.K):
            blk = gamma_k(code, b, k)
            lhs = kron(np.eye(M), overline(blk)) @ underline(ch.H0)
            np.testing.assert_allclose(lhs, underline(blk @ ch.H0),
                                       rtol=0, atol=1e-12)


class TestEquivalenceChain:
    def test_kernel_elements_transport_the_code(self, code, rng):
        # B in the channel kernel: A(lift(B)) = A(h0) B
        M = 2
        ch = draw_channel(code.N, M, rng)
        rc = realify(code, M)
        sub = compute_bspace(code, ch)
        a0 = build_A(rc, ch.h0)
        scale = np.linalg.norm(a0)
        for _ in range(10):
            coeff = rng.standard_normal(sub.dim)
            b = np.tensordot(coeff, np.stack(sub.basis), axes=(0, 0))
            h = lift_to_channel(rc, ch.h0, b)
            res = np.linalg.norm(build_A(rc, h) - a0 @ b)
            assert res <= 1e-10 * scale * np.linalg.norm(b)

    def test_non_kernel_elements_fail_to_transport(self, code, rng):
        # residual bounded away from zero outside the kernel
        M = 2
        ch = draw_channel(code.N, M, rng)
        rc = realify(code, M)
        sub = compute_bspace(code, ch)
        span = np.column_stack([vec(b) for b in sub.basis])
        a0 = build_A(rc, ch.h0)
        scale = np.linalg.norm(a0)
        hits = 0
        for _ in range(10):
            raw = rng.standard_normal((code.K, code.K))
            v = vec(raw)
            v = v - span @ (span.T @ v)
            if np.linalg.norm(v) < 1e-9:
                continue  # K=1: everything is in the kernel
            b = v.reshape((code.K, code.K), order="F")
            h = lift_to_channel(rc, ch.h0, b)
            res = np.linalg.norm(build_A(rc, h) - a0 @ b)
            assert res > 1e-2 * scale * np.linalg.norm(b)
            hits += 1
        if code.K > 1:
            assert hits == 10
