import tracemalloc

import numpy as np
import pytest

from ostbc_blind import (ChannelRealization, ConstellationModel,
                         ConvergenceError, SimulationConfig, ambiguity_matrix,
                         build_A, builtin_code, cli, compute_bspace, decode,
                         draw_channel, encode, estimate_channel, estimator,
                         lift_to_channel, predicted_eigenvalues,
                         principal_angles, realify, run_estimate, sample_R,
                         simulate, theoretical_R, underline, vec)
from oracles import (build_A_dense, davis_kahan_bound, dense_phi,
                     lifted_basis, mp_principal_angles, rayleigh_dense,
                     simulate_oneshot, vector_subspace_angle)


def random_spd(rng, k, lo=0.5, hi=2.0):
    lam = rng.uniform(lo, hi, size=k)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (q * lam) @ q.T


class TestConstellationModel:
    def test_eigendecomposition_invariant(self, rng):
        sigma = random_spd(rng, 4)
        cm = ConstellationModel.correlated(sigma)
        recon = (cm.U * cm.lambdas) @ cm.U.T
        np.testing.assert_allclose(recon, cm.Sigma, rtol=0, atol=1e-12)
        assert np.min(cm.lambdas) > 0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ConstellationModel.correlated(np.diag([1.0, -1.0]))

    def test_pm1_draws(self, rng):
        cm = ConstellationModel.iid_pm1(3)
        s = cm.draw(rng, 50)
        assert s.shape == (50, 3)
        assert set(np.unique(s)) == {-1.0, 1.0}

    def test_correlated_second_moment(self, rng):
        sigma = random_spd(rng, 3)
        cm = ConstellationModel.correlated(sigma)
        s = cm.draw(rng, 200000)
        emp = s.T @ s / len(s)
        assert np.max(np.abs(emp - sigma)) < 0.05


class TestTheoreticalR:
    @pytest.mark.parametrize("sigma2", [np.inf, -np.inf, np.nan, -0.1])
    def test_rejects_bad_noise(self, sigma2, rng):
        code = builtin_code("alamouti")
        rc = realify(code, 1)
        ch = draw_channel(code.N, 1, rng)
        with pytest.raises(ValueError, match="noise variance must be finite"):
            theoretical_R(rc, ch.h0, ConstellationModel.iid_pm1(code.K), sigma2)

    def test_rejects_channel_vector_of_wrong_shape(self):
        code = builtin_code("alamouti")
        rc = realify(code, 2)
        with pytest.raises(ValueError, match=r"^channel vector has shape "
                                             r"\(4,\), expected \(8,\)$"):
            theoretical_R(rc, np.ones(4), ConstellationModel.iid_pm1(code.K),
                          0.1)

    def test_returns_symmetric_array(self, rng):
        code = builtin_code("alamouti")
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        cov = theoretical_R(rc, ch.h0, ConstellationModel.iid_pm1(code.K), 0.1)
        assert isinstance(cov, np.ndarray)
        assert cov.shape == (rc.block_rows, rc.block_rows)
        np.testing.assert_array_equal(cov, cov.T)

    def test_noiseless_identity_sigma(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        cov = theoretical_R(rc, ch.h0, ConstellationModel.iid_pm1(code.K), 0.0)
        n2 = float(ch.h0 @ ch.h0)
        w = np.sort(np.linalg.eigvalsh(cov))
        nonzero = w[w > 1e-9 * w[-1]]
        assert len(nonzero) == code.K
        np.testing.assert_allclose(nonzero, n2, rtol=1e-12)

    def test_alamouti_shifted_spectrum(self):
        # unit-norm channel, sigma2 = 0.2: all four eigenvalues are 1.1
        code = builtin_code("alamouti")
        rc = realify(code, 1)
        ch = ChannelRealization.from_matrix(np.array([[1.0], [0.0]],
                                                     dtype=complex))
        cov = theoretical_R(rc, ch.h0, ConstellationModel.iid_pm1(4), 0.2)
        assert rc.block_rows == code.K  # no noise-floor eigenvalues here
        np.testing.assert_allclose(np.linalg.eigvalsh(cov), 1.1,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_spectrum_multiset(self, code, rng, M):
        rc = realify(code, M)
        ch = draw_channel(code.N, M, rng)
        sigma2 = float(rng.uniform(0.0, 1.0))
        cm = ConstellationModel.correlated(random_spd(rng, code.K))
        cov = theoretical_R(rc, ch.h0, cm, sigma2)
        got = np.sort(np.linalg.eigvalsh(cov))
        want = predicted_eigenvalues(rc, ch.h0, cm, sigma2)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(want[-1], 1.0)

    def test_signal_eigenvectors(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        cm = ConstellationModel.correlated(random_spd(rng, code.K))
        sigma2 = 0.3
        cov = theoretical_R(rc, ch.h0, cm, sigma2)
        n2 = float(ch.h0 @ ch.h0)
        cols = build_A(rc, ch.h0) @ cm.U
        for i in range(code.K):
            lam = n2 * cm.lambdas[i] + sigma2 / 2
            resid = cov @ cols[:, i] - lam * cols[:, i]
            assert np.linalg.norm(resid) <= 1e-9 * lam * np.linalg.norm(cols[:, i])


class TestSimulate:
    def config(self, sigma2=0.0, J=100, seed=7):
        code = builtin_code("alamouti")
        return SimulationConfig(code, 2, ConstellationModel.iid_pm1(code.K),
                                J, sigma2, seed)

    def test_noiseless_blocks_exact(self):
        blocks, truth, ch = simulate(self.config())
        rc = realify(builtin_code("alamouti"), 2)
        np.testing.assert_array_equal(blocks,
                                      truth @ build_A(rc, ch.h0).T)

    def test_seed_reproducibility(self):
        a = simulate(self.config(sigma2=0.5))
        b = simulate(self.config(sigma2=0.5))
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a[2].H0, b[2].H0)

    def test_sample_covariance_converges(self):
        cfg = self.config(sigma2=0.1, J=100000, seed=5)
        blocks, _, ch = simulate(cfg)
        rc = realify(cfg.code, cfg.M)
        R = theoretical_R(rc, ch.h0, cfg.constellation, cfg.sigma2)
        Rhat = sample_R(blocks)
        scale = np.max(np.abs(np.diag(R)))
        # law-of-large-numbers envelope, margin checked at this seed
        assert np.max(np.abs(Rhat - R)) <= 3.5 * scale / np.sqrt(cfg.J)

    @pytest.mark.parametrize("M", [1, 2, 256])
    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1),
                                               (2, 3)])
    @pytest.mark.parametrize("kind", ["iid-uniform-pm1", "gaussian"])
    def test_matches_one_shot_oracle(self, M, chunks, extra, kind):
        code = builtin_code("alamouti")
        cm = (ConstellationModel.iid_pm1(code.K) if kind == "iid-uniform-pm1"
              else ConstellationModel.gaussian(code.K))
        rows = estimator.CHUNK_NUMBERS // realify(code, M).block_rows
        J = chunks * rows + extra
        cfg = SimulationConfig(code, M, cm, J, 0.3, 11)
        got, want = simulate(cfg), simulate_oneshot(cfg)
        for x, y in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(got[2].H0, want[2].H0)

    def test_validates_config(self):
        code = builtin_code("scalar")
        cm = ConstellationModel.iid_pm1(1)
        with pytest.raises(ValueError):
            SimulationConfig(code, 1, cm, 0, 0.0, 1)
        with pytest.raises(ValueError):
            SimulationConfig(code, 1, cm, 1, -0.1, 1)

    @pytest.mark.parametrize("sigma2", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_noise(self, sigma2):
        code = builtin_code("scalar")
        cm = ConstellationModel.iid_pm1(1)
        with pytest.raises(ValueError, match="noise variance"):
            SimulationConfig(code, 1, cm, 1, sigma2, 1)

    @pytest.mark.parametrize("M", [0, -2])
    def test_rejects_no_receive_antenna(self, M, rng):
        code = builtin_code("scalar")
        cm = ConstellationModel.iid_pm1(1)
        with pytest.raises(ValueError, match="receive-antenna count"):
            SimulationConfig(code, M, cm, 1, 0.0, 1)
        with pytest.raises(ValueError, match="receive-antenna count"):
            draw_channel(code.N, M, rng)

    def test_covariance_budget(self, monkeypatch):
        # alamouti (L = 2, K = 4) at J = 1: blocks, symbols and a (4M, 4M)
        # covariance of 8 (4M + 4 + 16 M^2) bytes, 1280 at M = 3
        code = builtin_code("alamouti")
        cm = ConstellationModel.iid_pm1(code.K)
        monkeypatch.setattr(estimator, "MAX_BYTES", 1280)
        assert SimulationConfig(code, 3, cm, 1, 0.0, 1).M == 3
        with pytest.raises(ValueError, match=r"^--rx 4 --blocks 1 needs 2208 "
                           r"bytes, above the budget of 1280 bytes$"):
            SimulationConfig(code, 4, cm, 1, 0.0, 1)

    def test_received_block_budget(self, monkeypatch):
        # alamouti at M = 2: J blocks of 2ML = 8 floats, J symbols of K = 4
        # and an 8 x 8 covariance, 96 J + 512 bytes
        code = builtin_code("alamouti")
        cm = ConstellationModel.iid_pm1(code.K)
        monkeypatch.setattr(estimator, "MAX_BYTES", 96 * 10 + 512)
        assert SimulationConfig(code, 2, cm, 10, 0.0, 1).J == 10
        with pytest.raises(ValueError, match=r"^--rx 2 --blocks 11 needs 1568 "
                           r"bytes, above the budget of 1472 bytes$"):
            SimulationConfig(code, 2, cm, 11, 0.0, 1)


class TestSampleR:
    def test_single_block(self):
        y = np.array([1.0, 2.0])
        np.testing.assert_array_equal(sample_R([y]), np.outer(y, y))

    def test_two_opposite_blocks(self):
        e1 = np.array([1.0, 0.0, 0.0])
        cov = sample_R([e1, -e1])
        np.testing.assert_array_equal(cov, np.diag([1.0, 0.0, 0.0]))

    def test_order_invariant(self, rng):
        blocks = rng.standard_normal((20, 4))
        perm = rng.permutation(20)
        np.testing.assert_allclose(sample_R(blocks),
                                   sample_R(blocks[perm]),
                                   rtol=0, atol=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_R(np.empty((0, 4)))

    @pytest.mark.parametrize("J, n", [(1, 1), (7, 3), (50, 8), (30, 257),
                                      (9, 600), (40, 1024)])
    def test_matches_full_size_symmetrisation(self, J, n, rng):
        wide = rng.standard_normal((J, 2 * n)) * 3.0
        B = np.ascontiguousarray(wide[:, ::2])
        R = B.T @ B / J
        want = (R + R.T) / 2
        np.testing.assert_array_equal(sample_R(B), want)
        # every other column of a wider array: numpy forms B^T B of such a
        # view by a general product, whose result need not be symmetric
        np.testing.assert_array_equal(sample_R(wide[:, ::2]), want)


@pytest.fixture
def product_calls(monkeypatch):
    """The block shape of every estimator._rayleigh_product call."""
    calls = []
    product = estimator._rayleigh_product

    def counting(*args):
        calls.append(args[2].shape)
        return product(*args)

    monkeypatch.setattr(estimator, "_rayleigh_product", counting)
    return calls


class TestEstimateChannel:
    def test_trace_identity(self, code, rng):
        # h^T (Q h) = tr{A(h)^T R A(h)} for arbitrary symmetric R
        rc = realify(code, 2)
        g = rng.standard_normal((rc.block_rows, rc.block_rows))
        cov = sample_R(g)  # arbitrary PSD matrix
        for _ in range(10):
            h = rng.standard_normal(rc.channel_len)
            a = build_A(rc, h)
            lhs = h @ estimator._rayleigh_product(rc, cov, h[:, None])[:, 0]
            rhs = np.trace(a.T @ cov @ a)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_scalar_code_reduces_to_single_block(self, rng):
        code = builtin_code("scalar")
        rc = realify(code, 1)
        cov = sample_R(rng.standard_normal((10, 2)))
        q = rayleigh_dense(rc, cov)
        phi = dense_phi(rc)[0]
        np.testing.assert_allclose(q, phi.T @ cov @ phi,
                                   rtol=0, atol=1e-14)
        h = estimate_channel(rc, cov)
        w, v = np.linalg.eigh(q)
        assert abs(abs(v[:, -1] @ h) - 1.0) <= 1e-12

    @pytest.mark.parametrize("M", [1, 2, 3, 64])
    def test_matches_dense_einsum(self, code, rng, M):
        rc = realify(code, M)
        cov = sample_R(rng.standard_normal((4 * rc.block_rows, rc.block_rows)))
        scale = np.linalg.norm(cov)
        dense = rayleigh_dense(rc, cov)
        for p in (1, 5, rc.channel_len):
            V = rng.standard_normal((rc.channel_len, p))
            np.testing.assert_allclose(
                estimator._rayleigh_product(rc, cov, V), dense @ V,
                rtol=0, atol=1e-13 * scale * np.linalg.norm(V))

    @pytest.mark.parametrize("M", [1, 3, 32, 64])
    def test_estimate_lies_in_dense_top_eigenspace(self, code, M):
        cfg = SimulationConfig(code, M, ConstellationModel.iid_pm1(code.K),
                               500, 0.01, 7 + M)
        blocks, _, _ = simulate(cfg)
        rc = realify(code, M)
        cov = sample_R(blocks)
        h = estimate_channel(rc, cov)
        w, v = np.linalg.eigh(rayleigh_dense(rc, cov))
        top = v[:, w >= w[-1] * (1 - 1e-9)]
        resid = np.linalg.norm(h - top @ (top.T @ h))
        assert np.arcsin(min(1.0, resid)) <= 1e-10

    def test_top_eigenspace_is_the_lifted_ambiguity_span(self, code, rng):
        # multiplicity of the top eigenvalue equals the ambiguity dimension
        # and the eigenspace coincides with the lifted subspace
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        cm = ConstellationModel.correlated(random_spd(rng, code.K))
        cov = theoretical_R(rc, ch.h0, cm, 0.1)
        sub = compute_bspace(code, ch)
        w, v = np.linalg.eigh(rayleigh_dense(rc, cov))
        top = w >= w[-1] - 1e-8 * max(abs(w[-1]), 1.0)
        assert int(np.sum(top)) == sub.dim
        lifted = np.column_stack(
            [lift_to_channel(rc, ch.h0, b) for b in sub.basis])
        angles = mp_principal_angles(v[:, top].T, lifted.T)
        assert np.max(angles) <= 1e-7

    @pytest.mark.parametrize("sigma2", [0.0, 0.01, 1.0, 10.0])
    @pytest.mark.parametrize("M", [1, 2, 3, 64])
    def test_matches_dense_top_eigenspace(self, code, M, sigma2):
        cfg = SimulationConfig(code, M, ConstellationModel.iid_pm1(code.K),
                               300, sigma2, 100 + M)
        blocks, _, ch = simulate(cfg)
        rc = realify(code, M)
        cm = ConstellationModel.correlated(
            random_spd(np.random.default_rng(M), code.K))
        for cov in (sample_R(blocks), theoretical_R(rc, ch.h0, cm, sigma2)):
            h = estimate_channel(rc, cov)
            w, v = np.linalg.eigh(rayleigh_dense(rc, cov))
            top = v[:, w >= w[-1] * (1 - 1e-9)]
            resid = np.linalg.norm(h - top @ (top.T @ h))
            assert np.arcsin(min(1.0, resid)) <= 1e-8
            ritz = h @ estimator._rayleigh_product(rc, cov, h[:, None])[:, 0]
            assert abs(ritz - w[-1]) <= 1e-12 * w[-1]

    def test_whole_space_block_takes_one_step(self, code, product_calls):
        # 2MN <= K^2 + 4: the block is the whole space, the dense solve
        rc = realify(code, 1)
        cfg = SimulationConfig(code, 1, ConstellationModel.iid_pm1(code.K),
                               200, 1.0, 5)
        estimate_channel(rc, sample_R(simulate(cfg)[0]))
        assert product_calls == [(rc.channel_len, rc.channel_len)]

    def test_simple_top_eigenvalue_takes_few_steps(self, product_calls):
        # scalar: theta_1 is simple and stands far above the noise, while
        # theta_2 sits in the noise bulk; a stop rule that waited for the
        # second pair took 197 steps here
        code = builtin_code("scalar")
        rc = realify(code, 64)
        cfg = SimulationConfig(code, 64, ConstellationModel.iid_pm1(1),
                               2000, 10.0, 3)
        estimate_channel(rc, sample_R(simulate(cfg)[0]))
        assert len(product_calls) <= 20

    def test_memory_stays_below_the_dense_matrix(self, alamouti):
        M = 128
        rc = realify(alamouti, M)
        cfg = SimulationConfig(alamouti, M, ConstellationModel.iid_pm1(4),
                               500, 0.01, 3)
        cov = sample_R(simulate(cfg)[0])
        tracemalloc.start()
        try:
            estimate_channel(rc, cov)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rc.channel_len ** 2 * 8 / 2

    def test_non_convergence_raises_a_cli_error(self, alamouti, monkeypatch):
        # at M=64 and sigma2=10 the block needs more than one step
        monkeypatch.setattr(estimator, "MAX_STEPS", 1)
        rc = realify(alamouti, 64)
        cfg = SimulationConfig(alamouti, 64, ConstellationModel.iid_pm1(4),
                               500, 10.0, 1)
        with pytest.raises(ConvergenceError, match="did not converge") as exc:
            estimate_channel(rc, sample_R(simulate(cfg)[0]))
        assert isinstance(exc.value, cli._ERRORS)

    def test_rejects_non_finite_covariance(self, alamouti):
        rc = realify(alamouti, 1)
        cov = np.eye(rc.block_rows)
        cov[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimate_channel(rc, cov)

    @pytest.mark.parametrize("M", [1, 2, 3, 16])
    def test_power_of_two_scale_keeps_the_bits(self, code, M):
        # R and 2^e R give the same estimate, also where the norms of the
        # unscaled iteration would overflow (e = 600, 1000)
        rc = realify(code, M)
        for sigma2 in (0.0, 0.01, 1.0):
            cfg = SimulationConfig(code, M, ConstellationModel.iid_pm1(code.K),
                                   200, sigma2, 40 + M)
            cov = sample_R(simulate(cfg)[0])
            h = estimate_channel(rc, cov)
            for e in (-1000, -600, 600, 1000):
                h_e = estimate_channel(rc, np.ldexp(cov, e))
                np.testing.assert_array_equal(h_e, h)
            # subnormal entries: the capped scale keeps the block finite
            h_sub = estimate_channel(rc, np.ldexp(cov, -1040))
            assert abs(np.linalg.norm(h_sub) - 1.0) <= 1e-12

    def test_noiseless_estimate_is_valid_ambiguity(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        cov = theoretical_R(rc, ch.h0, ConstellationModel.iid_pm1(code.K), 0.0)
        h = estimate_channel(rc, cov)
        assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
        b, res = ambiguity_matrix(rc, ch.h0, h)
        assert res <= 1e-8
        assert np.linalg.norm(b.T @ b - np.eye(code.K)) <= 1e-8


class TestDecode:
    @pytest.mark.parametrize("M", [1, 2, 3, 64])
    def test_bit_equal_to_dense_oracle(self, code, rng, M):
        rc = realify(code, M)
        h = rng.standard_normal(rc.channel_len)
        y = rng.standard_normal((5, rc.block_rows))
        A = build_A_dense(rc, h)
        n2 = float(np.dot(h, h))
        np.testing.assert_array_equal(decode(rc, h, y), y @ A / n2)
        np.testing.assert_array_equal(decode(rc, h, y[0]), A.T @ y[0] / n2)

    def test_perfect_channel_roundtrip(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        s = rng.standard_normal(code.K)
        y = underline(encode(code, s) @ ch.H0)
        np.testing.assert_allclose(decode(rc, ch.h0, y), s, rtol=0, atol=1e-12)

    def test_zero_block(self, alamouti):
        rc = realify(alamouti, 1)
        h = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(decode(rc, h, np.zeros(4)), np.zeros(4))

    def test_batch_shape(self, alamouti, rng):
        rc = realify(alamouti, 2)
        h = rng.standard_normal(rc.channel_len)
        ys = rng.standard_normal((5, rc.block_rows))
        out = decode(rc, h, ys)
        assert out.shape == (5, 4)
        np.testing.assert_allclose(out[2], decode(rc, h, ys[2]),
                                   rtol=0, atol=1e-14)

    def test_rejects_zero_estimate(self, alamouti):
        rc = realify(alamouti, 1)
        with pytest.raises(ValueError):
            decode(rc, np.zeros(4), np.zeros(4))

    def test_rotated_decode_through_lifted_estimate(self, code, rng):
        # noiseless: s_hat = |h0| * (B/sqrt(c))^T s for unit-norm lift(B)
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        sub = compute_bspace(code, ch)
        s = rng.standard_normal(code.K)
        y = build_A(rc, ch.h0) @ s
        coeff = rng.standard_normal(sub.dim)
        b = np.tensordot(coeff, np.stack(sub.basis), axes=(0, 0))
        c = np.trace(b.T @ b) / code.K
        h = lift_to_channel(rc, ch.h0, b)
        h_unit = h / np.linalg.norm(h)
        s_hat = decode(rc, h_unit, y)
        want = np.linalg.norm(ch.h0) * (b / np.sqrt(c)).T @ s
        np.testing.assert_allclose(s_hat, want, rtol=0,
                                   atol=1e-10 * np.linalg.norm(want))


class TestAmbiguityMatrix:
    def test_true_channel_gives_identity(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        b, res = ambiguity_matrix(rc, ch.h0, ch.h0)
        np.testing.assert_allclose(b, np.eye(code.K), rtol=0, atol=1e-12)
        assert res <= 1e-12

    def test_lifted_elements_recovered(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        sub = compute_bspace(code, ch)
        for basis_el in sub.basis:
            h = lift_to_channel(rc, ch.h0, basis_el)
            b, res = ambiguity_matrix(rc, ch.h0, h)
            assert res <= 1e-10
            c = np.trace(basis_el.T @ basis_el) / code.K
            np.testing.assert_allclose(b, basis_el / np.sqrt(c),
                                       rtol=0, atol=1e-10)

    def test_random_vector_rejected(self, rng):
        # configurations where the ambiguity space is proper: residual
        # stays far from zero (separation measured at 0.3, asserting 0.05)
        for name in ("alamouti", "real2", "alamouti-k3"):
            code = builtin_code(name)
            rc = realify(code, 2)
            ch = draw_channel(code.N, 2, rng)
            for _ in range(10):
                h = rng.standard_normal(rc.channel_len)
                _, res = ambiguity_matrix(rc, ch.h0, h)
                assert res > 0.05

    def test_rejects_zero_inputs(self, alamouti, rng):
        rc = realify(alamouti, 1)
        h = rng.standard_normal(4)
        with pytest.raises(ValueError):
            ambiguity_matrix(rc, np.zeros(4), h)
        with pytest.raises(ValueError):
            ambiguity_matrix(rc, h, np.zeros(4))


class TestRunEstimate:
    def test_report_contents(self):
        code = builtin_code("alamouti")
        cfg = SimulationConfig(code, 2, ConstellationModel.iid_pm1(4),
                               2000, 0.01, 11)
        report = run_estimate(cfg)
        assert abs(np.linalg.norm(report.h_hat) - 1.0) <= 1e-12
        assert report.s_hat.shape == (2000, 4)
        assert report.B_hat.shape == (4, 4)
        assert report.residual < 0.05
        assert report.subspace_angle < np.radians(5.0)

    @pytest.mark.parametrize("M", [1, 2, 3, 64])
    def test_angle_matches_qr_arcsine_oracle(self, code, M):
        # principal_angles of one vector against the lifts agrees with a QR
        # of the normalized lifts and an arcsine of the residual
        cfg = SimulationConfig(code, M, ConstellationModel.iid_pm1(code.K),
                               300, 0.01, 40 + M)
        report = run_estimate(cfg)
        _, _, channel = simulate(cfg)
        rc = realify(code, M)
        sub = compute_bspace(code, channel, seed=cfg.seed)
        q = lifted_basis(rc, channel, sub)
        want = vector_subspace_angle(report.h_hat, q)
        assert abs(report.subspace_angle - want) <= 1e-14 + 1e-10 * want
        h = np.random.default_rng(M).standard_normal(rc.channel_len)
        lifts = [lift_to_channel(rc, channel.h0, b)[:, None]
                 for b in sub.basis]
        [angle] = principal_angles([h[:, None]], lifts)
        want = vector_subspace_angle(h, q)
        assert abs(angle - want) <= 1e-14 + 1e-10 * want

    def test_extracted_ambiguity_lies_in_channel_space(self, code, rng):
        rc = realify(code, 2)
        ch = draw_channel(code.N, 2, rng)
        cm = ConstellationModel.correlated(random_spd(rng, code.K))
        cov = theoretical_R(rc, ch.h0, cm, 0.2)
        h = estimate_channel(rc, cov)
        b, _ = ambiguity_matrix(rc, ch.h0, h)
        sub = compute_bspace(code, ch)
        span = np.column_stack([vec(x) for x in sub.basis])
        v = vec(b)
        resid = np.linalg.norm(v - span @ (span.T @ v)) / np.linalg.norm(v)
        assert resid <= 1e-8


class TestDavisKahan:
    def test_angle_within_the_sin_theta_bound(self, every_code):
        # sin(angle) <= 2 |Q_hat - Q|_2 / delta holds wherever the bound is
        # below 1; when d = 2MN the cluster is the whole space
        code = every_code
        bounded = 0
        for M in (1, 2, 4):
            rc = realify(code, M)
            cm = ConstellationModel.iid_pm1(code.K)
            for J, sigma2 in ((100, 0.01), (10 ** 3, 1), (10 ** 4, 10),
                              (100, 10)):
                for seed in (1, 2):
                    report = run_estimate(
                        SimulationConfig(code, M, cm, J, sigma2, seed))
                    # simulate draws the channel first from its seed
                    channel = draw_channel(code.N, M,
                                           np.random.default_rng(seed))
                    d = compute_bspace(code, channel).dim
                    if d == rc.channel_len:
                        continue
                    R = theoretical_R(rc, channel.h0, cm, sigma2)
                    bound = davis_kahan_bound(rc, sample_R(report.blocks),
                                              R, d)
                    if bound < 1:
                        bounded += 1
                        assert np.sin(report.subspace_angle) <= bound
        assert bounded > 0
