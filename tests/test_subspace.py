import json
import tracemalloc

import numpy as np
import pytest

from ostbc_blind import (BUILTIN_CODE_NAMES, AmbiguityStructureError,
                         AmbiguitySubspace, ChannelRealization, OstbCode,
                         SubspaceError, build_A, builtin_code, cli,
                         code_from_dict, compute_bspace, compute_bstar,
                         draw_channel, hr_basis, lift_to_channel,
                         principal_angles, realify, rho, spans_match,
                         subspace, unit_gammas, vec)
from ostbc_blind.estimator import _draw_bytes
from ostbc_blind.gamma import _channel_kernel_matrices

from oracles import (K2_MIXED_JSON, P0_JSON, exact_channel_dim, gamma_sums,
                     lift_kron, mp_principal_angles, random_transform,
                     real4x3, rotated_alamouti)

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
        assert spans_match(sub.basis, alamouti_generators())

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

    def test_bstar_is_channel_space_of_identity(self, code):
        # gamma(B) H = 0 depends on H only through its column space
        eye = ChannelRealization.from_matrix(np.eye(code.N))
        bstar = compute_bstar(code).basis
        bspace = compute_bspace(code, eye).basis
        assert len(bstar) == len(bspace)
        for a, b in zip(bstar, bspace):
            assert a.tobytes() == b.tobytes()

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
        assert spans_match(sub.basis, bstar.basis)

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
        zero = ChannelRealization(1, np.zeros((2, 1), dtype=complex))
        with pytest.raises(ValueError):
            compute_bspace(alamouti, zero)

    def test_rejects_antenna_mismatch(self, alamouti, rng):
        ch = draw_channel(3, 1, rng)  # three transmit antennas, code has two
        with pytest.raises(ValueError):
            compute_bspace(alamouti, ch)

    def test_basis_element_off_the_kernel_raises(self, alamouti, rng,
                                                 monkeypatch):
        original = subspace._kernels

        def last_column_replaced(m, cut):
            dims, span = original(m, cut)
            # the skew unit (E_12 - E_21)/sqrt(2) alone, with no E_34
            # part, is outside alamouti's kernel
            span[:, :, -1] = np.eye(m.shape[-1])[0]
            return dims, span

        monkeypatch.setattr(subspace, "_kernels", last_column_replaced)
        with pytest.raises(SubspaceError,
                           match=r"^basis element leaves kernel residual "
                                 r"\S+ above its bound \S+$"):
            compute_bspace(alamouti, draw_channel(alamouti.N, 2, rng))


class TestKernelBudget:
    def test_largest_antenna_count(self):
        # N = 2: the draw peaks at 3 * 16 * 2 = 96 bytes per antenna
        assert _draw_bytes(2, 22369621) == 2147483616
        with pytest.raises(ValueError, match=(
                r"^--rx 22369622 needs 2147483712 bytes, above the budget of "
                r"2147483648 bytes$")):
            draw_channel(2, 22369622, np.random.default_rng(0))


FACTOR_CODES = {name: builtin_code(name) for name in BUILTIN_CODE_NAMES} | {
    "real4x3": real4x3(),
    "rot3": rotated_alamouti(3),
    "rot4": rotated_alamouti(4),
    "k2-mixed": code_from_dict(json.loads(K2_MIXED_JSON)),
}
# codes with Gaussian-integer entries, which the sympy oracle reads exactly
EXACT_CODES = set(BUILTIN_CODE_NAMES) | {"real4x3"}


class TestTriangularFactor:
    """Past N antennas each kernel matrix is built from the N x N factor of
    the channel, and gives the kernel of the channel's own matrix."""

    @pytest.mark.parametrize("name", sorted(FACTOR_CODES))
    @pytest.mark.parametrize("extra", [1, 2, None], ids=["N+1", "N+2", "64"])
    def test_matches_the_uncompressed_kernel(self, name, extra, monkeypatch):
        code = FACTOR_CODES[name]
        K, M = code.K, 64 if extra is None else code.N + extra
        built = []

        def recording(unit, H0):
            built.append(_channel_kernel_matrices(unit, H0))
            return built[-1]

        monkeypatch.setattr(subspace, "_channel_kernel_matrices", recording)
        rng = np.random.default_rng([7, M])
        channels = [draw_channel(code.N, M, rng) for _ in range(3)]
        # columns that span one dimension only, whatever M: B(H) is then
        # the space of one column, which the factor must keep
        column, row = draw_channel(code.N, 1, rng).H0, rng.standard_normal(M)
        channels.append(ChannelRealization.from_matrix(column * row))
        for channel in channels:
            sub = compute_bspace(code, channel)
            # the images of I and of the K(K-1)/2 skew units
            assert built[-1].shape == (1, 2 * code.L * K * code.N,
                                       1 + K * (K - 1) // 2)
            # the channel's own 2LKM x K^2 kernel matrix, cut at the same
            # max(tol, 32 K^2 eps) |H|_F
            H = channel.H0
            cut = (max(subspace.RANK_TOL, 32 * K * K * np.finfo(float).eps)
                   * np.linalg.norm(H))
            ops = _channel_kernel_matrices(unit_gammas(code), H)
            _, s, vh = np.linalg.svd(ops, full_matrices=False)
            rank = np.count_nonzero(s > cut)
            assert sub.dim == K * K - rank
            full = [v.reshape((K, K), order="F") for v in vh[rank:]]
            assert np.max(principal_angles(sub.basis, full)) <= 1e-12
            for b in sub.basis:
                assert np.linalg.norm(gamma_sums(code, b) @ H) <= cut
        if name in EXACT_CODES and extra == 1:
            generic = compute_bspace(code, channels[0]).dim
            assert generic == exact_channel_dim(code, seed=M, M=M)


class TestKernelPassMemory:
    @pytest.mark.parametrize("name", ["alamouti", "scalar"])
    def test_peak_is_a_few_channels(self, name):
        # within the 3 * 16 N M bytes that drawing the channel peaks at;
        # the channel's own kernel matrix would take 16 L K^3 M bytes, 64
        # times the channel for alamouti
        code = builtin_code(name)
        M = 2 ** 16
        channel = draw_channel(code.N, M, np.random.default_rng(1))
        compute_bspace(code, channel)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            compute_bspace(code, channel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * code.N * M, peak / (16 * code.N * M)

    @pytest.mark.parametrize("name", ["alamouti", "scalar"])
    def test_whole_bspace_within_the_draw_check(self, name, capsys):
        # a channel holds one copy of its entries while the kernel pass
        # runs, so the command peaks at the 3 * 16 N M bytes that
        # _draw_bytes counts, plus a part that does not grow with M
        code = builtin_code(name)
        M = 2 ** 16
        argv = ["bspace", "--code", name, "--rx", str(M), "--seed", "1"]
        cli.main(argv)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _draw_bytes(code.N, M) + 2 ** 18, (
            peak / (16 * code.N * M))


class TestScaleInvariance:
    """B(cH) = B(H): each channel is scaled by a power of two first."""

    # |cH|_F^2 underflows at c = 1e-300 and 1e-170 and overflows from 1e155
    # on, and the kernel residuals once overflowed from 1e170 on
    SCALES = (1e-300, 1e-170, 1e-150, 1e-8, 1e8, 1e150, 1e155, 1e170, 1e200,
              1e300)
    # powers of two scale exactly, so these give the bits of c = 1
    EXACT_SCALES = (2.0 ** -1000, 2.0 ** -500, 2.0 ** 500, 2.0 ** 1000)

    @staticmethod
    def assert_same_space(got, want):
        """Same dimension, and for dim <= 2 (identity first, the one other
        element sign-fixed) the same basis; a larger basis may rotate."""
        assert len(got) == len(want)
        if len(want) <= 2:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            assert spans_match(got, want)

    def assert_scale_invariant(self, code, rng):
        for M in range(1, code.N + 2):
            H0 = draw_channel(code.N, M, rng).H0
            sub = compute_bspace(code, ChannelRealization.from_matrix(H0))
            for c in self.SCALES:
                scaled = compute_bspace(code,
                                        ChannelRealization.from_matrix(c * H0))
                self.assert_same_space(scaled.basis, sub.basis)

    def assert_bit_identical(self, code, rng):
        for M in range(1, code.N + 2):
            H0 = draw_channel(code.N, M, rng).H0
            stack = np.stack([H0] + [c * H0 for c in self.EXACT_SCALES])
            _, mats = subspace._channel_bases(code, unit_gammas(code), stack,
                                              1e-9)
            for got in mats[1:]:
                np.testing.assert_array_equal(got, mats[0])

    def test_every_code(self, any_code, rng):
        self.assert_scale_invariant(any_code, rng)
        self.assert_bit_identical(any_code, rng)

    def test_channel_whose_squared_norm_overflows(self, any_code, rng):
        # |cH|_F^2 overflows at c = 1e160 and 1e300 and |cH|_F does not
        H0 = draw_channel(any_code.N, 1, rng).H0
        dims, mats = subspace._channel_bases(
            any_code, unit_gammas(any_code),
            np.stack([H0, 1e160 * H0, 1e300 * H0]), 1e-9)
        assert (dims == dims[0]).all()
        for got in mats[1:]:
            self.assert_same_space(got, mats[0])

    def test_channel_whose_entry_magnitude_overflows(self, any_code, rng):
        # |1.5e308 (1 + i)| overflows and its parts do not
        H0 = 1e300 * draw_channel(any_code.N, 2, rng).H0
        H0[0, 0] = 1.5e308 * (1 + 1j)
        _, mats = subspace._channel_bases(
            any_code, unit_gammas(any_code),
            np.stack([H0, H0 * 2.0 ** -1000]), 1e-9)
        np.testing.assert_array_equal(mats[0], mats[1])

    def test_channel_whose_largest_entry_is_subnormal(self, any_code, rng):
        # 2.0**-e of its exponent e overflows; ldexp does not
        for M in range(1, any_code.N + 2):
            H0 = draw_channel(any_code.N, M, rng).H0
            small = 1e-310 * H0
            assert np.abs(small).max() < np.finfo(float).tiny
            sub = compute_bspace(any_code, ChannelRealization.from_matrix(H0))
            scaled = compute_bspace(any_code,
                                    ChannelRealization.from_matrix(small))
            assert scaled.dim == sub.dim

    @pytest.mark.parametrize("make", [
        real4x3, lambda: code_from_dict(json.loads(P0_JSON))],
        ids=["real4x3", "p0"])
    def test_code_with_a_transition_or_rounded_products(self, make, rng):
        self.assert_scale_invariant(make(), rng)
        self.assert_bit_identical(make(), rng)


def _scale_codes():
    base = ([builtin_code(name) for name in BUILTIN_CODE_NAMES]
            + [real4x3(), rotated_alamouti(3), rotated_alamouti(4),
               OstbCode("unit2", 2, 2, 1, (np.eye(2),))])
    rng = np.random.default_rng(27)
    return {c.name: c for c in base + [random_transform(c, rng)[0]
                                       for c in base]}


SCALE_CODES = _scale_codes()


@pytest.mark.parametrize("name", SCALE_CODES)
def test_largest_singular_value_is_the_channel_norm(name, rng):
    """sigma_max of the channel kernel matrix is |H|_F for every code with
    K >= 2, reached at B = E_ab + E_ba, so one cut max(tol, 32 K^2 eps)
    |H|_F serves every channel; for K = 1 the matrix is rounding noise."""
    code = SCALE_CODES[name]
    K, eps = code.K, np.finfo(float).eps
    unit = unit_gammas(code)
    for M in range(1, code.N + 2):
        H0 = (rng.standard_normal((20, code.N, M))
              + 1j * rng.standard_normal((20, code.N, M)))
        for c in (1e-150, 1.0, 1e150):
            ops = _channel_kernel_matrices(unit, c * H0)
            norm = np.hypot.reduce(np.abs(c * H0).reshape(20, -1), axis=-1)
            smax = np.linalg.svd(ops, compute_uv=False)[:, 0] / norm
            if K == 1:
                assert smax.max() <= subspace.RESIDUAL_ROUNDING * eps
                continue
            assert np.abs(smax - 1).max() <= 8 * eps
            for a in range(K):
                for b in range(a + 1, K):
                    witness = ops[..., a + b * K] + ops[..., b + a * K]
                    ratio = np.linalg.norm(witness, axis=-1) / norm
                    assert np.abs(ratio - np.sqrt(2)).max() <= 8 * eps


def _symmetric_and_skew_units(K):
    """Frobenius-orthonormal bases of the traceless symmetric and of the
    skew K x K matrices, as (count, K, K) stacks."""
    eye = np.eye(K)
    a, b = np.triu_indices(K, 1)
    helmert = [(eye[:j].sum(axis=0) - j * eye[j]) / np.sqrt(j * (j + 1))
               for j in range(1, K)]
    sym = [np.diag(d) for d in helmert] + [
        (np.outer(eye[i], eye[j]) + np.outer(eye[j], eye[i])) / np.sqrt(2)
        for i, j in zip(a, b)]
    skew = [(np.outer(eye[i], eye[j]) - np.outer(eye[j], eye[i])) / np.sqrt(2)
            for i, j in zip(a, b)]
    return np.array(sym).reshape(-1, K, K), np.array(skew).reshape(-1, K, K)


@pytest.mark.parametrize("name", sorted(FACTOR_CODES))
def test_channel_space_is_the_identity_and_the_skew_kernel(name, rng):
    """B(H) = span{I} + ker(A -> gamma(A) H on skew A), which the channel
    route rests on: gamma(I) H lies under the cut, every traceless
    symmetric B maps with singular value |H|_F, and the symmetric and
    skew images are orthogonal (README)."""
    code = FACTOR_CODES[name]
    K = code.K
    sym, skew = _symmetric_and_skew_units(K)
    unit = unit_gammas(code)
    for M in range(1, code.N + 2):
        H = (rng.standard_normal((20, code.N, M))
             + 1j * rng.standard_normal((20, code.N, M)))
        norm = np.linalg.norm(H.reshape(20, -1), axis=-1)
        ops = _channel_kernel_matrices(unit, H)
        cut = max(subspace.RANK_TOL, 32 * K * K * np.finfo(float).eps) * norm
        assert (np.linalg.norm(ops @ vec(np.eye(K)), axis=-1) <= cut).all()
        sym_images, skew_images = ops @ vec(sym).T, ops @ vec(skew).T
        s = np.linalg.svd(sym_images, compute_uv=False)
        assert (np.abs(s - norm[:, None]) <= 1e-13 * norm[:, None]).all()
        cross = sym_images.swapaxes(-1, -2) @ skew_images
        assert (np.abs(cross) <= 1e-14 * norm[:, None, None] ** 2).all()


class TestLiftToChannel:
    def test_identity_lifts_to_same_vector(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        np.testing.assert_allclose(lift_to_channel(rc, ch.h0, np.eye(code.K)),
                                   ch.h0, rtol=0, atol=1e-12)

    def test_matches_kronecker_oracle(self, any_code, rng):
        code = any_code
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

    def test_reordered_basis_is_refused(self, alamouti):
        # the basis is checked in its documented order, not reordered
        sub = compute_bstar(alamouti)
        reversed_basis = AmbiguitySubspace(sub.code, sub.kind, sub.M, sub.dim,
                                           tuple(reversed(sub.basis)), sub.tol)
        with pytest.raises(AmbiguityStructureError,
                           match=r"^first basis element is not I/sqrt\(K\): "
                                 r"deviation \S+$"):
            hr_basis(reversed_basis)

    def test_dependent_basis_detected(self, alamouti):
        half = np.eye(4) / 2
        fake = AmbiguitySubspace(alamouti, "invariant", None, 2, (half, half),
                                 1e-9)
        with pytest.raises(AmbiguityStructureError,
                           match="^basis is not orthonormal: Gram deviation "
                                 "1.414e[+]00$"):
            hr_basis(fake)

    def test_report_measures_the_basis_as_computed(self, every_code):
        # each family element is its basis element rescaled, so an exactly
        # skew basis element reports an exactly zero skew residual
        code = every_code
        subs = [compute_bstar(code)] + [
            compute_bspace(code, draw_channel(code.N, M,
                                              np.random.default_rng(1)))
            for M in range(1, code.N + 2)]
        for sub in subs:
            hr = hr_basis(sub)
            assert hr.family_size == sub.dim - 1
            for f, b in zip(hr.family, sub.basis[1:]):
                assert np.vdot(f, b) > 0
                assert np.linalg.norm(f / np.linalg.norm(f) - b) <= 1e-15
            assert hr.max_skew_residual == 0.0

    def test_corrupted_subspace_detected(self):
        code = builtin_code("real2")
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        fake = AmbiguitySubspace(code, "invariant", None, 2,
                                 (np.eye(2) / np.sqrt(2), nilpotent), 1e-9)
        with pytest.raises(AmbiguityStructureError):
            hr_basis(fake)

    def test_family_beyond_the_bound_detected(self):
        # J and diag(1, -1) are orthogonal and anticommute, but beside the
        # identity a 2 x 2 family holds at most rho(2) - 1 = 1 element
        code = builtin_code("real2")
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        basis = tuple(b / np.sqrt(2) for b in (np.eye(2), J, np.diag([1.0, -1.0])))
        fake = AmbiguitySubspace(code, "invariant", None, 3, basis, 1e-9)
        with pytest.raises(AmbiguityStructureError,
                           match="^family of 2 exceeds the Hurwitz-Radon "
                                 "bound 1$"):
            hr_basis(fake)


class TestPureRotation:
    def test_random_invariant_elements_rotate(self, alamouti, rng):
        # every element of B* is a rotation up to a positive constant
        sub = compute_bstar(alamouti)
        for _ in range(20):
            coeff = rng.standard_normal(sub.dim)
            b = np.tensordot(coeff, np.stack(sub.basis), axes=(0, 0))
            c = np.trace(b.T @ b) / alamouti.K
            assert np.linalg.norm(b.T @ b - c * np.eye(alamouti.K)) <= 1e-8 * c
            assert np.linalg.det(b) > 0


class TestPrincipalAngles:
    def test_identical_spans(self, alamouti):
        sub = compute_bstar(alamouti)
        assert np.max(principal_angles(sub.basis, sub.basis)) <= 1e-12

    def test_detects_dimension_mismatch(self, alamouti):
        sub = compute_bstar(alamouti)
        assert not spans_match(sub.basis, sub.basis[:2])

    @pytest.mark.parametrize("angles", [(1e-9, 0.3, 1.4), (1e-10, 1.5)])
    def test_known_angles(self, angles):
        # small angles beside one above pi/4 keep their arcsine
        n = len(angles)
        eye = np.eye(2 * n)
        basis_a = [eye[:, [i]] for i in range(n)]
        basis_b = [np.cos(t) * eye[:, [i]] + np.sin(t) * eye[:, [n + i]]
                   for i, t in enumerate(angles)]
        np.testing.assert_allclose(principal_angles(basis_a, basis_b),
                                   sorted(angles, reverse=True),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("ka, kb", [(3, 3), (2, 5), (5, 2)])
    @pytest.mark.parametrize("regime", ["random", "near-zero", "near-right"])
    def test_matches_mpmath_reference(self, rng, ka, kb, regime):
        # The reference is mpmath at 50 digits: scipy.linalg.subspace_angles
        # picks arcsine or arccosine per angle from mismatched orders.
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
                angles, mp_principal_angles(basis_a, basis_b),
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
