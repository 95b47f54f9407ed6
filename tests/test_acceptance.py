"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is fixed here, nothing is calibrated
at runtime.
"""

import time
from contextlib import contextmanager

import numpy as np

from ostbc_blind import (BUILTIN_CODE_NAMES, ConstellationModel,
                         SimulationConfig, SpectrumSpec, ambiguity_matrix,
                         build_A, builtin_code, compute_bspace, compute_bstar,
                         construct_maximizer, draw_channel, encode,
                         estimate_channel, find_mstar, hr_basis,
                         kyfan_membership, kyfan_sample_check, kyfan_value,
                         lift_to_channel, predicted_eigenvalues, realify, rho,
                         run_estimate, spans_match, theoretical_R, underline,
                         vec)
from ostbc_blind.cli import main
from oracles import dense_phi, kron


@contextmanager
def criterion(num, budget_s, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL ({time.perf_counter() - start:6.2f} s): {desc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} PASS ({elapsed:6.2f} s): {desc}")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def random_spd(rng, k, lo=0.5, hi=2.0):
    lam = rng.uniform(lo, hi, size=k)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (q * lam) @ q.T


def test_criterion_01_alamouti_invariant_space(capsys):
    with criterion(1, 1.0, "alamouti invariant space: dim 4, generator span"):
        assert main(["bstar", "--code", "alamouti"]) == 0
        assert "dim=4" in capsys.readouterr().out
        sub = compute_bstar(builtin_code("alamouti"))
        assert sub.dim == 4
        c3 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        om2 = np.diag([1.0, -1.0])
        om4 = np.array([[0.0, 1.0], [1.0, 0.0]])
        gens = [np.eye(4), np.kron(c3, np.eye(2)), np.kron(om4, c3),
                np.kron(om2, c3)]
        assert spans_match(sub.basis, gens)


def test_criterion_02_odd_k_rule(capsys):
    with criterion(2, 1.0, "odd-K rule: alamouti-k3 has dim 1, identity basis"):
        assert main(["bstar", "--code", "alamouti-k3"]) == 0
        assert "dim=1" in capsys.readouterr().out
        sub = compute_bstar(builtin_code("alamouti-k3"))
        assert sub.dim == 1
        np.testing.assert_allclose(sub.basis[0], np.eye(3) / np.sqrt(3),
                                   rtol=0, atol=1e-12)


def test_criterion_03_hurwitz_radon_structure():
    with criterion(3, 1.0, "Hurwitz-Radon structure of every invariant space"):
        for name in BUILTIN_CODE_NAMES:
            code = builtin_code(name)
            hr = hr_basis(compute_bstar(code))
            assert hr.max_skew_residual <= 1e-10
            assert hr.max_involution_residual <= 1e-10
            assert hr.max_anticommute_residual <= 1e-10
            assert hr.family_size <= rho(code.K) - 1
            if name == "alamouti":
                assert hr.family_size == rho(4) - 1 == 3


def test_criterion_04_isometry():
    with criterion(4, 5.0, "channel lift is an isometry (50 random draws)"):
        rng = np.random.default_rng(404)
        for draw in range(50):
            code = builtin_code(BUILTIN_CODE_NAMES[draw % 5])
            M = int(rng.integers(1, 4))
            ch = draw_channel(code.N, M, rng)
            rc = realify(code, M)
            sub = compute_bspace(code, ch)
            n2 = float(ch.h0 @ ch.h0)
            lifts = [lift_to_channel(rc, ch.h0, b) for b in sub.basis]
            for i, bi in enumerate(sub.basis):
                for j, bj in enumerate(sub.basis):
                    want = n2 / code.K * np.trace(bi.T @ bj)
                    assert abs(lifts[i] @ lifts[j] - want) <= 1e-9 * n2


def test_criterion_05_deterministic_dimension():
    with criterion(5, 60.0, "deterministic dimension census, 100 trials/M"):
        for name in BUILTIN_CODE_NAMES:
            code = builtin_code(name)
            result = find_mstar(code, 4, 100, seed=505)
            d_star = result.d_star
            prev = None
            for M in result.M_range:
                dims = set(result.dims[M - 1].tolist())
                assert dims == {result.d_mode[M]}  # single observed value
                if prev is not None:
                    assert result.d_mode[M] <= prev
                prev = result.d_mode[M]
            assert (result.dims[code.N - 1:] == d_star).all()
            assert (result.angles[code.N - 1:] <= 1e-8).all()


def test_criterion_06_covariance_eigenstructure():
    with criterion(6, 10.0, "theoretical covariance spectra match prediction"):
        rng = np.random.default_rng(606)
        for name in BUILTIN_CODE_NAMES:
            code = builtin_code(name)
            for M in (1, 2, 3):
                rc = realify(code, M)
                for trial in range(10):
                    ch = draw_channel(code.N, M, rng)
                    cm = ConstellationModel.correlated(
                        random_spd(rng, code.K, lo=0.2, hi=3.0))
                    sigma2 = 0.0 if trial == 0 else float(rng.uniform(0.0, 1.0))
                    cov = theoretical_R(rc, ch.h0, cm, sigma2)
                    got = np.sort(np.linalg.eigvalsh(cov))
                    want = predicted_eigenvalues(rc, ch.h0, cm, sigma2)
                    assert np.max(np.abs(got - want)) <= 1e-9 * max(want[-1], 1.0)


def test_criterion_07_estimator_theoretical_r():
    with criterion(7, 30.0, "estimator on theoretical covariance (50/code)"):
        rng = np.random.default_rng(707)
        for name in BUILTIN_CODE_NAMES:
            code = builtin_code(name)
            for _ in range(50):
                M = int(rng.integers(1, 4))
                rc = realify(code, M)
                ch = draw_channel(code.N, M, rng)
                cm = ConstellationModel.correlated(random_spd(rng, code.K))
                sigma2 = float(rng.uniform(0.0, 0.5))
                cov = theoretical_R(rc, ch.h0, cm, sigma2)
                h_hat = estimate_channel(rc, cov)
                b_hat, residual = ambiguity_matrix(rc, ch.h0, h_hat)
                assert residual <= 1e-8
                assert np.linalg.norm(b_hat.T @ b_hat - np.eye(code.K)) <= 1e-8
                sub = compute_bspace(code, ch)
                span = np.column_stack([vec(b) for b in sub.basis])
                v = vec(b_hat)
                in_span = np.linalg.norm(v - span @ (span.T @ v))
                assert in_span <= 1e-8 * np.linalg.norm(v)


def test_criterion_08_estimator_consistency_sample_r():
    with criterion(8, 60.0, "sample-covariance estimator within 5 degrees"):
        code = builtin_code("alamouti")
        cm = ConstellationModel.iid_pm1(4)
        for seed in range(20):
            config = SimulationConfig(code, 2, cm, 10000, 0.01, seed)
            report = run_estimate(config)
            assert np.degrees(report.subspace_angle) <= 5.0


def test_criterion_09_noiseless_decode_relation():
    with criterion(9, 5.0, "noiseless decode through a lifted estimate"):
        rng = np.random.default_rng(909)
        for name in BUILTIN_CODE_NAMES:
            code = builtin_code(name)
            M = 2
            rc = realify(code, M)
            ch = draw_channel(code.N, M, rng)
            sub = compute_bspace(code, ch)
            a0 = build_A(rc, ch.h0)
            for _ in range(10):
                coeff = rng.standard_normal(sub.dim)
                b = np.tensordot(coeff, np.stack(sub.basis), axes=(0, 0))
                c = np.trace(b.T @ b) / code.K
                b_tilde = b / np.sqrt(c)
                h = lift_to_channel(rc, ch.h0, b)
                h_unit = h / np.linalg.norm(h)
                s = rng.standard_normal(code.K)
                y = a0 @ s
                a_hat = build_A(rc, h_unit)
                s_hat = a_hat.T @ y  # unit estimate: |h_unit|^2 = 1
                rotated = b_tilde.T @ s
                c_fit = float(s_hat @ rotated / (rotated @ rotated))
                assert np.linalg.norm(s_hat - c_fit * rotated) <= \
                    1e-10 * np.linalg.norm(s_hat)
                # scale factor: c_fit * |h_unit| / |h0| must be 1
                assert abs(c_fit * 1.0 / np.linalg.norm(ch.h0) - 1.0) <= 1e-10


def _degenerate_eigs(rng, m, q):
    # spectra with ties at and around the boundary eigenvalue
    levels = np.sort(rng.uniform(-3.0, 3.0, size=3))[::-1]
    eigs = np.empty(m)
    third = m // 3
    eigs[:third] = levels[0]
    eigs[third:2 * third] = levels[1]
    eigs[2 * third:] = levels[2]
    return eigs


def test_criterion_10_kyfan():
    with criterion(10, 30.0, "trace bound, maximizers, membership (20 spectra)"):
        rng = np.random.default_rng(1010)
        for case in range(20):
            m = int(rng.integers(4, 9))
            q = int(rng.integers(1, min(m, 4) + 1))
            if case % 2 == 0:
                g = rng.standard_normal((m, m))
                p = (g + g.T) / 2
            else:
                eigs = _degenerate_eigs(rng, m, q)
                v, _ = np.linalg.qr(rng.standard_normal((m, m)))
                p = (v * eigs) @ v.T
            spec = SpectrumSpec.from_matrix(p, q)
            value = kyfan_value(spec)
            scale = np.linalg.norm(p)

            report = kyfan_sample_check(spec, 10000, seed=case)
            assert report.max_trace <= value + 1e-12 * scale

            for rotate in (False, True):
                q_star = construct_maximizer(
                    spec, rng if rotate else None, rotate=rotate)
                trace = np.trace(q_star.T @ p @ q_star)
                assert abs(trace - value) <= 1e-12 * max(scale, 1.0)
                assert kyfan_membership(spec, q_star, tol=1e-8)

            if spec.q_plus < m:
                # near-maximal trace, wrong structure: must be rejected
                eps = 5e-6
                v = spec.eigenvectors
                q_bad = construct_maximizer(spec)
                mix = np.cos(eps) * q_bad[:, -1] + np.sin(eps) * v[:, -1]
                q_bad = np.column_stack([q_bad[:, :-1], mix])
                trace = np.trace(q_bad.T @ p @ q_bad)
                assert value - trace <= 1e-9
                assert not kyfan_membership(spec, q_bad, tol=1e-8)


def test_criterion_11_identity_battery():
    with criterion(11, 5.0, "algebraic identity battery at 1e-12"):
        rng = np.random.default_rng(1111)
        for name in BUILTIN_CODE_NAMES:
            code = builtin_code(name)
            eye_n = np.eye(code.N)
            # coefficient-matrix constraints hold exactly
            for i, ci in enumerate(code.C):
                assert np.linalg.norm(ci.conj().T @ ci - eye_n) == 0.0
                for cj in code.C[i + 1:]:
                    assert np.linalg.norm(
                        ci.conj().T @ cj + cj.conj().T @ ci) == 0.0
            # encoded blocks stay orthogonal
            for _ in range(5):
                s = rng.standard_normal(code.K)
                x = encode(code, s)
                n2 = float(s @ s)
                assert np.linalg.norm(x.conj().T @ x - n2 * eye_n) <= 1e-12 * n2
            # realified operators inherit the structure
            for M in (1, 2, 3):
                rc = realify(code, M)
                n = rc.channel_len
                phi = dense_phi(rc)
                for i, pi in enumerate(phi):
                    assert np.linalg.norm(pi.T @ pi - np.eye(n)) <= 1e-12
                    for pj in phi[i + 1:]:
                        assert np.linalg.norm(pi.T @ pj + pj.T @ pi) <= 1e-12
                stacked = np.vstack(phi)
                gram = stacked.T @ stacked
                assert np.linalg.norm(gram - code.K * np.eye(n)) <= 1e-12
                h = rng.standard_normal(n)
                a = build_A(rc, h)
                n2 = float(h @ h)
                assert np.linalg.norm(a.T @ a - n2 * np.eye(code.K)) <= 1e-12 * n2
        # embedding identities on random complex matrices
        for _ in range(10):
            a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            lhs = underline(a) @ underline(b)
            rhs = 0.5 * np.trace(a.conj().T @ b + b.conj().T @ a).real
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        from ostbc_blind import overline
        for _ in range(10):
            a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            np.testing.assert_allclose(
                underline(a @ b), kron(np.eye(2), overline(a)) @ underline(b),
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                vec(np.asarray(a.real @ b.real)),
                kron(b.real.T, np.eye(3)) @ vec(a.real),
                rtol=0, atol=1e-12)
