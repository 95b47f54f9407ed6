import numpy as np
import pytest

from ostbc_blind import (ConstellationModel, KyFanError, SpectrumSpec, build_A,
                         construct_maximizer, draw_channel, kyfan_membership,
                         kyfan_sample_check, kyfan_value, random_stiefel,
                         realify, theoretical_R)
from ostbc_blind import kyfan
from oracles import kyfan_traces_oneshot, orthonormal_qr, random_stiefel_qr


def spec_from_eigs(rng, eigs, q):
    eigs = np.asarray(eigs, dtype=float)
    m = len(eigs)
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return SpectrumSpec.from_matrix((v * eigs) @ v.T, q)


class TestSpectrumSpec:
    def test_boundary_indices_distinct(self):
        spec = SpectrumSpec.from_matrix(np.diag([3.0, 2.0, 1.0]), 2)
        assert (spec.q_minus, spec.q_plus) == (1, 2)

    def test_boundary_indices_degenerate(self):
        spec = SpectrumSpec.from_matrix(np.diag([2.0, 1.0, 1.0, 0.0]), 2)
        assert (spec.q_minus, spec.q_plus) == (1, 3)

    def test_invariants(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 9))
            q = int(rng.integers(1, m + 1))
            g = rng.standard_normal((m, m))
            spec = SpectrumSpec.from_matrix((g + g.T) / 2, q)
            assert 0 <= spec.q_minus < q <= spec.q_plus <= m
            recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
            assert np.linalg.norm(recon - spec.P) <= 1e-10 * np.linalg.norm(spec.P)

    @pytest.mark.parametrize("q", [0, 4])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError):
            SpectrumSpec.from_matrix(np.eye(3), q)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SpectrumSpec.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError,
                           match=r"^P must be square, got shape \(3, 2\)$"):
            SpectrumSpec.from_matrix(np.ones((3, 2)), 1)


class TestKyFanValue:
    def test_distinct_spectrum(self):
        assert kyfan_value(SpectrumSpec.from_matrix(np.diag([3.0, 2.0, 1.0]), 2)) == 5.0

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_identity(self, q):
        assert kyfan_value(SpectrumSpec.from_matrix(np.eye(4), q)) == q

    def test_degenerate_boundary(self):
        assert kyfan_value(SpectrumSpec.from_matrix(np.diag([2.0, 1.0, 1.0, 0.0]), 2)) == 3.0

    def test_rotated_basis_same_value(self, rng):
        spec = spec_from_eigs(rng, [4.0, 3.0, 3.0, 1.0, 0.0], 3)
        assert kyfan_value(spec) == pytest.approx(10.0, abs=1e-12)


class TestMembership:
    def test_top_eigenvectors_accepted(self, rng):
        spec = spec_from_eigs(rng, [4.0, 3.0, 2.0, 1.0], 2)
        assert kyfan_membership(spec, spec.eigenvectors[:, :2])

    def test_low_eigenvector_rejected(self, rng):
        spec = spec_from_eigs(rng, [4.0, 3.0, 2.0, 1.0], 2)
        v = spec.eigenvectors
        q = np.column_stack([v[:, 0], v[:, 3]])
        assert not kyfan_membership(spec, q)

    def test_rotation_invariance_at_tight_boundary(self, rng):
        spec = spec_from_eigs(rng, [4.0, 3.0, 2.0, 1.0], 2)
        b = random_stiefel(rng, 2, 2)
        assert kyfan_membership(spec, spec.eigenvectors[:, :2] @ b)

    def test_degenerate_slice_accepted(self, rng):
        spec = spec_from_eigs(rng, [2.0, 1.0, 1.0, 1.0, 0.0, 0.0], 3)
        q = construct_maximizer(spec, rng, rotate=True)
        assert kyfan_membership(spec, q)
        trace = np.trace(q.T @ spec.P @ q)
        assert abs(trace - kyfan_value(spec)) <= 1e-12 * max(np.linalg.norm(spec.P), 1)

    def test_missing_required_eigenvector_rejected(self, rng):
        spec = spec_from_eigs(rng, [2.0, 1.0, 1.0, 1.0, 0.0, 0.0], 3)
        v = spec.eigenvectors
        q = v[:, 1:4]  # fills the boundary eigenspace but drops v1
        assert not kyfan_membership(spec, q)

    def test_rejects_non_orthonormal(self, rng):
        spec = spec_from_eigs(rng, [3.0, 2.0, 1.0], 2)
        with pytest.raises(ValueError):
            kyfan_membership(spec, np.ones((3, 2)))

    def test_rejects_wrong_shape(self, rng):
        spec = spec_from_eigs(rng, [3.0, 2.0, 1.0], 2)
        with pytest.raises(ValueError,
                           match=r"^Q has shape \(3, 1\), expected \(3, 2\)$"):
            kyfan_membership(spec, spec.eigenvectors[:, :1])

    def test_rotation_requires_rng(self, rng):
        spec = spec_from_eigs(rng, [3.0, 2.0, 1.0], 2)
        with pytest.raises(ValueError, match="^rotation requires an rng$"):
            construct_maximizer(spec, rotate=True)

    def test_near_maximizer_outside_structure_rejected(self, rng):
        # small mix toward a low eigenvector: trace within 1e-9 of the
        # maximum, membership residual far above its tolerance
        spec = spec_from_eigs(rng, [3.0, 2.0, 1.0, 0.5], 2)
        v = spec.eigenvectors
        eps = 1e-5
        q = np.column_stack([v[:, 0],
                             np.cos(eps) * v[:, 1] + np.sin(eps) * v[:, 3]])
        trace = np.trace(q.T @ spec.P @ q)
        assert kyfan_value(spec) - trace <= 1e-9
        assert not kyfan_membership(spec, q, tol=1e-8)


class TestSampleCheck:
    def test_distinct_spectrum_bound(self):
        spec = SpectrumSpec.from_matrix(np.diag([4.0, 3.0, 2.0, 1.0]), 2)
        report = kyfan_sample_check(spec, 10000, seed=1)
        assert report.max_trace <= 7.0 + 1e-12 * np.linalg.norm(spec.P)
        assert report.passed

    def test_square_case_all_maximal(self, rng):
        spec = spec_from_eigs(rng, [3.0, 1.0, -2.0], 3)
        report = kyfan_sample_check(spec, 200, seed=2)
        assert report.n_near == 200
        assert abs(report.max_trace - np.trace(spec.P)) <= 1e-12

    def test_degenerate_spectrum(self, rng):
        spec = spec_from_eigs(rng, [3.0, 1.0, 1.0, 1.0, 0.0, -1.0], 3)
        report = kyfan_sample_check(spec, 10000, seed=3)
        assert report.passed
        q = construct_maximizer(spec, rng)
        trace = np.trace(q.T @ spec.P @ q)
        assert abs(trace - kyfan_value(spec)) <= 1e-12 * np.linalg.norm(spec.P)

    def test_trace_rotation_invariance(self, rng):
        spec = spec_from_eigs(rng, [4.0, 2.0, 1.0, 0.0, -3.0], 3)
        q = random_stiefel(rng, 5, 3)
        b = random_stiefel(rng, 3, 3)
        t1 = np.trace(q.T @ spec.P @ q)
        t2 = np.trace((q @ b).T @ spec.P @ (q @ b))
        assert abs(t1 - t2) <= 1e-12 * max(abs(t1), 1.0)

    def test_trace_above_the_bound_raises(self):
        # eigenvalues 1.5 below those of P put the bound, 1.5, under the
        # trace of many samples
        spec = SpectrumSpec.from_matrix(np.diag([3.0, 2.0, 1.0]), 1)
        low = SpectrumSpec(**{**vars(spec),
                              "eigenvalues": spec.eigenvalues - 1.5})
        with pytest.raises(KyFanError, match=r"^sampled trace \S+ exceeds "
                                             r"bound 1\.5\d*e\+00$"):
            kyfan_sample_check(low, 100, 1)

    def test_near_sample_within_its_deficit_of_the_maximizers(self):
        # The spectrum of `kyfan --m 2 --q 1 --seed 2`. Sample 31575 lies
        # 1.39e-10 below the maximum across an eigen-gap of 2.79, so its
        # column space is sqrt(1.39e-10 / 2.79) = 7.06e-6 off the top
        # eigenvector: a maximizer to the precision of its trace, beyond a
        # fixed residual tolerance of 1e-8.
        g = np.random.default_rng([2, 0]).standard_normal((2, 2))
        spec = SpectrumSpec.from_matrix((g + g.T) / 2, 1)
        report = kyfan_sample_check(spec, 40000, [2, 1])
        assert report.passed and report.n_near >= 1

    def test_rejects_bad_sample_count(self, rng):
        spec = spec_from_eigs(rng, [1.0, 0.0], 1)
        with pytest.raises(ValueError):
            kyfan_sample_check(spec, 0, seed=0)


def batch_size(m, q):
    """Draws per batch of kyfan_sample_check on an m x q check."""
    return max(1, kyfan.SAMPLE_ENTRIES // (m * q))


class TestChunkedSampling:
    CHUNK = batch_size(6, 3)

    @pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3])
    def test_matches_one_shot_oracle(self, rng, monkeypatch, samples):
        spec = spec_from_eigs(rng, [3.0, 2.0, 2.0, 1.0, 0.5, -1.0], 3)
        batch = random_stiefel(np.random.default_rng([9, 1]), spec.m,
                               spec.q, samples)
        traces = kyfan._traces(batch.transpose(2, 1, 0), spec.P)
        oracle = kyfan_traces_oneshot(spec, samples, [9, 1])
        assert np.abs(traces - oracle).max() <= 1e-14 * np.linalg.norm(spec.P)
        # bitwise: the batches of the check give the one-shot traces
        report = kyfan_sample_check(spec, samples, [9, 1])
        assert report.max_trace == float(np.max(traces))
        # A wide near band, with membership waved through, counts the
        # near samples of every batch.
        monkeypatch.setattr(kyfan, "kyfan_membership", lambda *args: True)
        monkeypatch.setattr(kyfan, "NEAR_TOL", 0.5)
        wide = kyfan_sample_check(spec, samples, [9, 1])
        assert wide.n_near == int(np.sum(traces >= wide.value - 0.5)) > 0
        assert wide.n_near == int(np.sum(oracle >= wide.value - 0.5))

    def test_draw_bits_independent_of_stack_size(self, rng):
        spec = spec_from_eigs(rng, [3.0, 2.0, 1.0, 0.5, 0.0, -1.0], 3)
        whole = random_stiefel(np.random.default_rng(4), 6, 3, 1000)
        split = np.random.default_rng(4)
        parts = [random_stiefel(split, 6, 3, n) for n in (3, 1, 499, 497)]
        assert np.array_equal(np.concatenate(parts), whole)
        single = random_stiefel(np.random.default_rng(4), 6, 3)
        assert np.array_equal(single, whole[0])
        traces = kyfan._traces(whole.transpose(2, 1, 0), spec.P)
        assert np.array_equal(np.concatenate(
            [kyfan._traces(p.transpose(2, 1, 0), spec.P) for p in parts]),
            traces)

    def test_error_names_global_sample_index(self, monkeypatch):
        # Square Q: every sample reaches the maximum, so each is checked.
        spec = SpectrumSpec.from_matrix(np.diag([2.0, 1.0]), 2)
        chunk = batch_size(2, 2)
        calls = []

        def fail_once(spec, Q, tol):
            calls.append(Q)
            return len(calls) != chunk + 5

        monkeypatch.setattr(kyfan, "kyfan_membership", fail_once)
        with pytest.raises(KyFanError, match=rf"sample {chunk + 4} "):
            kyfan_sample_check(spec, 2 * chunk, 3)

    def test_memory_bounded_by_chunk(self, rng):
        import tracemalloc
        spec = spec_from_eigs(rng, [3.0, 2.0, 1.0, 0.5, 0.0, -1.0], 3)
        samples = 16 * self.CHUNK
        tracemalloc.start()
        try:
            kyfan_sample_check(spec, samples, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < samples * spec.m * spec.q * 8 / 2

    def test_memory_bounded_for_large_matrices(self, rng):
        # all 2000 draws in one batch peak near 26 MB; the entry budget
        # holds 279 draws a batch
        import tracemalloc
        g = rng.standard_normal((24, 24))
        spec = SpectrumSpec.from_matrix((g + g.T) / 2, 22)
        tracemalloc.start()
        try:
            kyfan_sample_check(spec, 2000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch_size(24, 22) < 2000 / 4
        assert peak < 8 * kyfan.SAMPLE_ENTRIES * 8


def gram_schmidt(a):
    """kyfan._orthonormalize on a copy of a stack (n, m, q)."""
    return kyfan._orthonormalize(a.transpose(2, 1, 0).copy()).transpose(2, 1, 0)


def orthonormality_error(Q):
    return np.abs(Q.swapaxes(-1, -2) @ Q - np.eye(Q.shape[-1])).max()


class TestStackedGramSchmidt:
    """Classical Gram-Schmidt applied twice against a LAPACK QR."""

    @pytest.mark.parametrize("m, q", [(6, 3), (4, 4), (9, 1), (2, 2)])
    def test_agrees_with_qr_sampler(self, m, q):
        Q = random_stiefel(np.random.default_rng(7), m, q, 5000)
        R = random_stiefel_qr(np.random.default_rng(7), m, q, 5000)
        assert Q.shape == (5000, m, q)
        assert np.abs(Q - R).max() <= 1e-13
        assert orthonormality_error(Q) <= 1e-14
        one = random_stiefel(np.random.default_rng(8), m, q)
        assert np.abs(one - random_stiefel_qr(np.random.default_rng(8), m, q)
                      ).max() <= 1e-13

    @pytest.mark.parametrize("kappa", [1e4, 1e8])
    def test_graded_columns(self, rng, kappa):
        # Columns scaled by 1 down to 1/kappa: condition numbers of kappa
        # and above, with Q factors that stay well determined.
        a = rng.standard_normal((2000, 6, 3)) * np.geomspace(1, 1 / kappa, 3)
        assert np.linalg.cond(a).max() >= kappa
        Q = gram_schmidt(a)
        assert np.abs(Q - orthonormal_qr(a)).max() <= 1e-13
        assert orthonormality_error(Q) <= 1e-14

    @pytest.mark.parametrize("kappa", [1e4, 1e8])
    def test_nearly_dependent_columns(self, rng, kappa):
        # A = U diag(s) V^T with condition number kappa: the Q factor
        # itself is determined only to about kappa * eps, so the two
        # routes agree to that; both span A's columns to rounding.
        u = orthonormal_qr(rng.standard_normal((2000, 6, 3)))
        v = orthonormal_qr(rng.standard_normal((2000, 3, 3)))
        a = (u * np.geomspace(1, 1 / kappa, 3)) @ v.swapaxes(-1, -2)
        assert np.allclose(np.linalg.cond(a), kappa, rtol=1e-6)
        Q = gram_schmidt(a)
        assert orthonormality_error(Q) <= 1e-14
        residual = a - Q @ (Q.swapaxes(-1, -2) @ a)
        assert (np.linalg.norm(residual, axis=(1, 2))
                <= 1e-14 * np.linalg.norm(a, axis=(1, 2))).all()
        assert np.abs(Q - orthonormal_qr(a)).max() <= 1e-13 * kappa

    def test_rejects_more_columns_than_rows(self, rng):
        with pytest.raises(ValueError, match="q <= m"):
            random_stiefel(rng, 2, 3)


class TestEstimatorConnection:
    def test_signal_basis_achieves_maximum(self, code, rng):
        # A(h0/|h0|) U attains the trace maximum of (R, q=K)
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        lam = np.sort(rng.uniform(0.5, 2.0, size=code.K))[::-1]
        u, _ = np.linalg.qr(rng.standard_normal((code.K, code.K)))
        cm = ConstellationModel.correlated((u * lam) @ u.T)
        cov = theoretical_R(rc, ch.h0, cm, 0.4)
        spec = SpectrumSpec.from_matrix(cov, code.K)
        n0 = np.linalg.norm(ch.h0)
        q = build_A(rc, ch.h0 / n0) @ cm.U
        trace = np.trace(q.T @ cov @ q)
        assert abs(trace - kyfan_value(spec)) <= 1e-10 * max(1.0, kyfan_value(spec))
        assert kyfan_membership(spec, q, tol=1e-7)
