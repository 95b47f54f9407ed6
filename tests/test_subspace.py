import numpy as np
import pytest

from ostbc_blind import (AmbiguityStructureError, AmbiguitySubspace, build_A,
                         builtin_code, check_pure_rotation, compute_bspace,
                         compute_bstar, draw_channel, hr_basis,
                         lift_to_channel, principal_angles, realify, rho,
                         spans_match, vec)

from oracles import lift_kron, scipy_principal_angles

EXPECTED_BSTAR_DIM = {
    "alamouti": 4,
    "alamouti-k3": 1,
    "alamouti-k2": 2,
    "scalar": 1,
    "real2": 2,
}


def alamouti_generators():
    c3 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    om2 = np.diag([1.0, -1.0])
    om4 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return [np.eye(4), np.kron(c3, np.eye(2)), np.kron(om4, c3),
            np.kron(om2, c3)]


class TestRho:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (3, 1), (4, 4), (8, 8), (12, 4), (16, 9), (32, 10),
        (64, 12), (128, 16),
    ])
    def test_values(self, n, expected):
        assert rho(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rho(0)


class TestComputeBstar:
    def test_dimensions(self, code):
        assert compute_bstar(code).dim == EXPECTED_BSTAR_DIM[code.name]

    def test_scalar_basis(self):
        sub = compute_bstar(builtin_code("scalar"))
        assert sub.dim == 1
        np.testing.assert_allclose(sub.basis[0], [[1.0]], rtol=0, atol=1e-15)

    def test_odd_k_identity_only(self):
        sub = compute_bstar(builtin_code("alamouti-k3"))
        assert sub.dim == 1
        np.testing.assert_allclose(sub.basis[0], np.eye(3) / np.sqrt(3),
                                   rtol=0, atol=1e-12)

    def test_alamouti_span_matches_generators(self, alamouti):
        sub = compute_bstar(alamouti)
        assert spans_match(sub.basis, alamouti_generators(), angle_tol=1e-8)

    def test_basis_orthonormal_identity_first(self, code):
        sub = compute_bstar(code)
        k = code.K
        np.testing.assert_allclose(sub.basis[0], np.eye(k) / np.sqrt(k),
                                   rtol=0, atol=1e-12)
        mat = np.column_stack([vec(b) for b in sub.basis])
        np.testing.assert_allclose(mat.T @ mat, np.eye(sub.dim),
                                   rtol=0, atol=1e-10)

    def test_dim_insensitive_to_tol(self, code):
        dims = {compute_bstar(code, tol).dim
                for tol in (1e-6, 1e-8, 1e-10, 1e-12)}
        assert len(dims) == 1

    def test_dim_bounded_by_rho(self, code):
        assert compute_bstar(code).dim <= rho(code.K)

    def test_identifiable_flag(self):
        assert compute_bstar(builtin_code("alamouti-k3")).identifiable
        assert not compute_bstar(builtin_code("alamouti")).identifiable

    def test_span_elements_are_scaled_orthogonal(self, code, rng):
        sub = compute_bstar(code)
        for _ in range(10):
            coeff = rng.standard_normal(sub.dim)
            b = np.tensordot(coeff, np.stack(sub.basis), axes=(0, 0))
            c = np.trace(b.T @ b) / code.K
            assert np.linalg.norm(b.T @ b - c * np.eye(code.K)) <= 1e-10 * max(c, 1)

    def test_basis_is_read_only(self, alamouti):
        with pytest.raises(ValueError, match="read-only"):
            compute_bstar(alamouti).basis[1][0, 0] = 0.0

    def test_rejects_nonpositive_tol(self, alamouti):
        with pytest.raises(ValueError):
            compute_bstar(alamouti, 0.0)


class TestComputeBspace:
    @pytest.mark.parametrize("M", [2, 3])
    def test_equals_invariant_space_when_m_large(self, code, rng, M):
        # M >= N: the channel space collapses onto the invariant one
        bstar = compute_bstar(code)
        ch = draw_channel(code.N, M, rng)
        sub = compute_bspace(code, ch)
        assert spans_match(sub.basis, bstar.basis, angle_tol=1e-8)

    def test_always_contains_invariant_space(self, code, rng):
        bstar = compute_bstar(code)
        for M in (1, 2):
            ch = draw_channel(code.N, M, rng)
            sub = compute_bspace(code, ch)
            span = np.column_stack([vec(b) for b in sub.basis])
            for b in bstar.basis:
                v = vec(b)
                assert np.linalg.norm(v - span @ (span.T @ v)) <= 1e-8

    def test_constant_dimension_across_channels(self, alamouti, rng):
        dims = set()
        for _ in range(100):
            ch = draw_channel(2, 1, rng)
            dims.add(compute_bspace(alamouti, ch).dim)
        assert dims == {4}  # value fixed by the exact-arithmetic oracle

    def test_dim_insensitive_to_tol(self, code, rng):
        ch = draw_channel(code.N, 1, rng)
        dims = {compute_bspace(code, ch, tol).dim
                for tol in (1e-6, 1e-8, 1e-10, 1e-12)}
        assert len(dims) == 1

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1e300, np.inf, np.nan])
    def test_rejects_tol_outside_unit_interval(self, bad, alamouti, rng):
        ch = draw_channel(alamouti.N, 1, rng)
        with pytest.raises(ValueError, match=r"tol must be finite and in \(0, 1\)"):
            compute_bspace(alamouti, ch, bad)
        with pytest.raises(ValueError, match=r"tol must be finite and in \(0, 1\)"):
            compute_bstar(alamouti, bad)

    def test_rejects_zero_channel(self, alamouti):
        from ostbc_blind import ChannelRealization
        zero = ChannelRealization(1, np.zeros((2, 1), dtype=complex),
                                  np.zeros(4))
        with pytest.raises(ValueError):
            compute_bspace(alamouti, zero)

    def test_rejects_antenna_mismatch(self, alamouti, rng):
        ch = draw_channel(3, 1, rng)  # three transmit antennas, code has two
        with pytest.raises(ValueError):
            compute_bspace(alamouti, ch)


class TestLiftToChannel:
    def test_identity_lifts_to_same_vector(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        np.testing.assert_allclose(lift_to_channel(rc, ch.h0, np.eye(code.K)),
                                   ch.h0, rtol=0, atol=1e-12)

    def test_matches_kronecker_oracle(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        for _ in range(5):
            b = rng.standard_normal((code.K, code.K))
            np.testing.assert_allclose(lift_to_channel(rc, ch.h0, b),
                                       lift_kron(rc, ch.h0, b),
                                       rtol=0, atol=1e-12)

    def test_transports_the_code_on_basis(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        sub = compute_bspace(code, ch)
        a0 = build_A(rc, ch.h0)
        for b in sub.basis:
            h = lift_to_channel(rc, ch.h0, b)
            assert np.linalg.norm(build_A(rc, h) - a0 @ b) <= \
                1e-10 * np.linalg.norm(a0)

    def test_isometry_on_basis_pairs(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        sub = compute_bspace(code, ch)
        n2 = float(ch.h0 @ ch.h0)
        lifts = [lift_to_channel(rc, ch.h0, b) for b in sub.basis]
        for i, bi in enumerate(sub.basis):
            for j, bj in enumerate(sub.basis):
                want = n2 / code.K * np.trace(bi.T @ bj)
                assert abs(lifts[i] @ lifts[j] - want) <= 1e-10 * n2

    def test_normalized_transport(self, code, rng):
        # A(h/|h|) = A(h0/|h0|) (B / sqrt(c)) for basis elements
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        sub = compute_bspace(code, ch)
        n0 = np.linalg.norm(ch.h0)
        a0n = build_A(rc, ch.h0 / n0)
        for b in sub.basis:
            h = lift_to_channel(rc, ch.h0, b)
            c = np.trace(b.T @ b) / code.K
            lhs = build_A(rc, h / np.linalg.norm(h))
            np.testing.assert_allclose(lhs, a0n @ (b / np.sqrt(c)),
                                       rtol=0, atol=1e-10)

    def test_dimension_mismatch(self, alamouti):
        rc = realify(alamouti, 1)
        with pytest.raises(ValueError):
            lift_to_channel(rc, np.zeros(6), np.eye(4))
        with pytest.raises(ValueError):
            lift_to_channel(rc, np.zeros(4), np.eye(3))


class TestHurwitzRadon:
    def test_trivial_spaces_have_empty_family(self):
        for name in ("scalar", "alamouti-k3"):
            hr = hr_basis(compute_bstar(builtin_code(name)))
            assert hr.family_size == 0

    def test_alamouti_reaches_bound(self, alamouti):
        hr = hr_basis(compute_bstar(alamouti))
        assert hr.family_size == rho(4) - 1 == 3
        assert hr.max_skew_residual <= 1e-10
        assert hr.max_involution_residual <= 1e-10
        assert hr.max_anticommute_residual <= 1e-10

    def test_real2_family_is_the_rotation_generator(self):
        hr = hr_basis(compute_bstar(builtin_code("real2")))
        assert hr.family_size == 1
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert (np.allclose(hr.family[0], expected, atol=1e-12)
                or np.allclose(hr.family[0], -expected, atol=1e-12))

    def test_family_properties_all_codes(self, code):
        hr = hr_basis(compute_bstar(code))
        assert hr.family_size <= rho(code.K) - 1
        assert hr.max_skew_residual <= 1e-10
        assert hr.max_involution_residual <= 1e-10
        assert hr.max_anticommute_residual <= 1e-10

    def test_reordered_basis_spans_same_space(self, alamouti):
        sub = compute_bstar(alamouti)
        shuffled = AmbiguitySubspace(sub.code, sub.kind, sub.M, sub.dim,
                                     tuple(reversed(sub.basis)), sub.tol)
        hr_a = hr_basis(sub)
        hr_b = hr_basis(shuffled)
        span_a = [hr_a.identity] + list(hr_a.family)
        span_b = [hr_b.identity] + list(hr_b.family)
        assert spans_match(span_a, span_b, angle_tol=1e-8)

    def test_corrupted_subspace_detected(self):
        code = builtin_code("real2")
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        fake = AmbiguitySubspace(code, "invariant", None, 2,
                                 (np.eye(2) / np.sqrt(2), nilpotent), 1e-9)
        with pytest.raises(AmbiguityStructureError):
            hr_basis(fake)


class TestPureRotation:
    def test_identity(self):
        c, ok = check_pure_rotation(np.eye(3))
        assert c == pytest.approx(1.0)
        assert ok

    def test_reflection_rejected(self):
        c, ok = check_pure_rotation(np.diag([1.0, -1.0]))
        assert c == pytest.approx(1.0)
        assert not ok

    def test_random_invariant_elements_rotate(self, alamouti, rng):
        sub = compute_bstar(alamouti)
        for _ in range(20):
            coeff = rng.standard_normal(sub.dim)
            b = np.tensordot(coeff, np.stack(sub.basis), axes=(0, 0))
            _, ok = check_pure_rotation(b, tol=1e-8)
            assert ok

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_pure_rotation(np.zeros((2, 2)))


class TestPrincipalAngles:
    def test_identical_spans(self, alamouti):
        sub = compute_bstar(alamouti)
        assert np.max(principal_angles(sub.basis, sub.basis)) <= 1e-12

    def test_detects_dimension_mismatch(self, alamouti):
        sub = compute_bstar(alamouti)
        assert not spans_match(sub.basis, sub.basis[:2])

    @pytest.mark.parametrize("ka, kb", [(3, 3), (2, 5), (5, 2)])
    @pytest.mark.parametrize("regime", ["random", "near-zero", "near-right"])
    def test_matches_scipy_reference(self, rng, ka, kb, regime):
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        a = q[:, :ka] @ rng.standard_normal((ka, ka))
        b = {"random": rng.standard_normal((9, kb)),
             "near-zero": q[:, :kb],
             "near-right": q[:, ka:ka + kb]}[regime]
        b = b + 1e-10 * rng.standard_normal((9, kb))
        full = [col.reshape(3, 3) for col in a.T]
        basis_b = [col.reshape(3, 3) for col in b.T]
        # and ka + 1 matrices of rank ka, which the rank cut must reduce
        for basis_a in (full, full + full[:1]):
            angles = principal_angles(basis_a, basis_b)
            assert angles.shape == (min(ka, kb),)
            if regime == "near-zero":
                assert np.max(angles) <= 1e-8
            if regime == "near-right":
                assert np.min(angles) >= np.pi / 2 - 1e-8
            np.testing.assert_allclose(
                angles, scipy_principal_angles(basis_a, basis_b),
                rtol=0, atol=1e-14)


class TestOneSvdPerKernel:
    @pytest.mark.parametrize("M", [None, 1, 64])
    def test_single_svd_call(self, code, rng, monkeypatch, M):
        channel = None if M is None else draw_channel(code.N, M, rng)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        if channel is None:
            compute_bstar(code)
        else:
            compute_bspace(code, channel)
        assert len(calls) == 1, calls
