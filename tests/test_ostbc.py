import json

import numpy as np
import pytest

from ostbc_blind import (BUILTIN_CODE_NAMES, ChannelRealization,
                         CodeFormatError, CodeValidationError, OstbCode,
                         build_A, builtin_code, encode, load_code, realify,
                         underline, validate_code)
from ostbc_blind.cli import main
from ostbc_blind.ostbc import _phi, _phi_t
from oracles import build_A_dense, code_to_dict, dense_phi


class TestRegistry:
    def test_names_and_shapes(self):
        expected = {
            "alamouti": (2, 2, 4),
            "alamouti-k3": (2, 2, 3),
            "alamouti-k2": (2, 2, 2),
            "scalar": (1, 1, 1),
            "real2": (2, 2, 2),
        }
        for name, (n, l, k) in expected.items():
            c = builtin_code(name)
            assert (c.N, c.L, c.K) == (n, l, k)

    def test_alamouti_matrices(self):
        c = builtin_code("alamouti")
        np.testing.assert_array_equal(c.C[0], np.eye(2))
        np.testing.assert_array_equal(c.C[1], 1j * np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(c.C[2], [[0, 1], [-1, 0]])
        np.testing.assert_array_equal(c.C[3], 1j * np.array([[0, 1], [1, 0]]))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_code("nosuchcode")

    def test_all_validate_exactly(self, code):
        report = validate_code(code, 1e-15)
        assert report.passed
        assert report.max_unit_error == 0.0
        assert report.max_pair_error == 0.0


class TestValidateCode:
    def test_scaled_identity_fails_unit(self):
        bad = OstbCode("bad", 2, 2, 1, (2.0 * np.eye(2) + 0j,))
        report = validate_code(bad, 1e-9)
        assert not report.passed
        assert report.max_unit_error == pytest.approx(3.0)

    def test_repeated_matrix_fails_pair(self):
        bad = OstbCode("bad", 2, 2, 2, (np.eye(2) + 0j, np.eye(2) + 0j))
        report = validate_code(bad, 1e-9)
        assert not report.passed
        assert report.max_pair_error == pytest.approx(2.0)

    def test_rejects_nonpositive_tol(self, alamouti):
        with pytest.raises(ValueError):
            validate_code(alamouti, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0])
    def test_rejects_tol_outside_unit_interval(self, alamouti, bad):
        with pytest.raises(ValueError, match="tol must be finite"):
            validate_code(alamouti, bad)


class TestEncode:
    def test_first_unit_vector(self, alamouti):
        np.testing.assert_array_equal(encode(alamouti, [1, 0, 0, 0]), np.eye(2))

    def test_symbolic_expansion(self, alamouti, rng):
        s1, s2, s3, s4 = rng.standard_normal(4)
        expected = np.array([[s1 + 1j * s2, s3 + 1j * s4],
                             [-s3 + 1j * s4, s1 - 1j * s2]])
        np.testing.assert_allclose(encode(alamouti, [s1, s2, s3, s4]), expected,
                                   rtol=0, atol=1e-15)

    def test_zero(self, code):
        np.testing.assert_array_equal(encode(code, np.zeros(code.K)),
                                      np.zeros((code.L, code.N)))

    def test_linear(self, code, rng):
        s = rng.standard_normal(code.K)
        t = rng.standard_normal(code.K)
        lhs = encode(code, 0.4 * s - 2.0 * t)
        rhs = 0.4 * encode(code, s) - 2.0 * encode(code, t)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_orthogonality(self, code, rng):
        for _ in range(10):
            s = rng.standard_normal(code.K)
            x = encode(code, s)
            gram = x.conj().T @ x
            n2 = float(s @ s)
            assert np.linalg.norm(gram - n2 * np.eye(code.N)) <= 1e-12 * n2

    def test_length_mismatch(self, alamouti):
        with pytest.raises(ValueError):
            encode(alamouti, [1.0, 2.0])


class TestRealify:
    def test_scalar_code(self):
        rc = realify(builtin_code("scalar"), 1)
        np.testing.assert_array_equal(dense_phi(rc)[0], np.eye(2))

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_orthogonality_relations(self, code, M):
        rc = realify(code, M)
        n = rc.channel_len
        phi = dense_phi(rc)
        for i, pi in enumerate(phi):
            assert np.linalg.norm(pi.T @ pi - np.eye(n)) <= 1e-12
            for pj in phi[i + 1:]:
                assert np.linalg.norm(pi.T @ pj + pj.T @ pi) <= 1e-12

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_stacked_gram(self, code, M):
        rc = realify(code, M)
        stacked = np.vstack(dense_phi(rc))
        gram = stacked.T @ stacked
        assert np.linalg.norm(gram - code.K * np.eye(rc.channel_len)) <= 1e-12

    def test_rejects_bad_antenna_count(self, alamouti):
        with pytest.raises(ValueError):
            realify(alamouti, 0)

    def test_storage_does_not_grow_with_M(self, code):
        def nbytes(rc):
            return sum(v.nbytes for v in vars(rc).values()
                       if isinstance(v, np.ndarray))
        sizes = {nbytes(realify(code, M)) for M in (1, 2, 64, 256)}
        assert sizes == {code.K * 4 * code.L * code.N * 8}

    def test_blocks_are_read_only(self, alamouti):
        rc = realify(alamouti, 3)
        with pytest.raises(ValueError):
            rc.blocks[0, 0, 0] = 2.0


class TestPhi:
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("p", [1, 5])
    def test_adjoint_identity(self, any_code, rng, M, p):
        # <Y, Phi V> = <Phi^T Y, V>
        rc = realify(any_code, M)
        V = rng.standard_normal((rc.channel_len, p))
        Y = rng.standard_normal((rc.block_rows, any_code.K * p))
        X = _phi(rc, V)
        lhs = np.sum(Y * X)
        rhs = np.sum(_phi_t(rc, Y) * V)
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(Y) * np.linalg.norm(X)

    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("p", [1, 5])
    def test_matches_dense_oracle(self, any_code, rng, M, p):
        rc = realify(any_code, M)
        phi = dense_phi(rc)
        V = rng.standard_normal((rc.channel_len, p))
        Y = rng.standard_normal((rc.block_rows, any_code.K * p))
        np.testing.assert_allclose(_phi(rc, V), np.hstack([f @ V for f in phi]),
                                   rtol=0, atol=1e-14 * np.linalg.norm(V))
        blocks = np.split(Y, any_code.K, axis=1)
        np.testing.assert_allclose(
            _phi_t(rc, Y), sum(f.T @ y for f, y in zip(phi, blocks)),
            rtol=0, atol=1e-14 * np.linalg.norm(Y))


class TestBuildA:
    def test_zero(self, alamouti):
        rc = realify(alamouti, 1)
        np.testing.assert_array_equal(build_A(rc, np.zeros(4)),
                                      np.zeros((4, 4)))

    def test_gram(self, code, rng):
        rc = realify(code, 2)
        h = rng.standard_normal(rc.channel_len)
        gram = build_A(rc, h).T @ build_A(rc, h)
        n2 = float(h @ h)
        assert np.linalg.norm(gram - n2 * np.eye(code.K)) <= 1e-12 * n2

    def test_columns_are_embedded_products(self, code, rng):
        # underline(C_k H) = Phi_k h
        M = 2
        rc = realify(code, M)
        H = rng.standard_normal((code.N, M)) + 1j * rng.standard_normal((code.N, M))
        h = underline(H)
        A = build_A(rc, h)
        for k, c in enumerate(code.C):
            np.testing.assert_allclose(A[:, k], underline(c @ H),
                                       rtol=0, atol=1e-12)

    def test_received_vector_formula(self, code, rng):
        # underline(X(s) H + W) = A(h) s + underline(W)
        M = 3
        rc = realify(code, M)
        H = rng.standard_normal((code.N, M)) + 1j * rng.standard_normal((code.N, M))
        s = rng.standard_normal(code.K)
        W = rng.standard_normal((code.L, M)) + 1j * rng.standard_normal((code.L, M))
        lhs = underline(encode(code, s) @ H + W)
        rhs = build_A(rc, underline(H)) @ s + underline(W)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_length_mismatch(self, alamouti):
        rc = realify(alamouti, 1)
        with pytest.raises(ValueError):
            build_A(rc, np.zeros(6))

    @pytest.mark.parametrize("M", [1, 2, 3, 64])
    def test_bit_equal_to_dense_oracle(self, code, rng, M):
        rc = realify(code, M)
        h = rng.standard_normal(rc.channel_len)
        A = build_A(rc, h)
        assert A.flags.c_contiguous
        np.testing.assert_array_equal(A, build_A_dense(rc, h))


class TestChannelRealization:
    def test_embedding(self, rng):
        H = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        ch = ChannelRealization.from_matrix(H)
        assert ch.M == 3
        np.testing.assert_array_equal(ch.h0, underline(H))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ChannelRealization.from_matrix(np.zeros((2, 2), dtype=complex))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError,
                           match="^channel matrix must be 2-dimensional$"):
            ChannelRealization.from_matrix(np.ones(3))


class TestCodeFiles:
    def test_round_trip(self, tmp_path, code):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(code_to_dict(code)))
        loaded = load_code(path)
        assert (loaded.name, loaded.N, loaded.L, loaded.K) == \
            (code.name, code.N, code.L, code.K)
        for a, b in zip(loaded.C, code.C):
            np.testing.assert_array_equal(a, b)

    def test_matrix_count_mismatch(self, tmp_path):
        payload = code_to_dict(builtin_code("alamouti-k3"))
        payload["K"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_non_numeric_entry(self, tmp_path):
        payload = code_to_dict(builtin_code("scalar"))
        payload["C"][0][0][0] = ["x", 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_invalid_code_rejected_on_load(self, tmp_path):
        payload = {"name": "bad", "N": 2, "L": 2, "K": 1,
                   "C": [[[[2.0, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [2.0, 0.0]]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CodeValidationError):
            load_code(path)
        loaded = load_code(path, validate=False)
        assert not validate_code(loaded, 1e-9).passed

    def test_matrix_of_wrong_shape_rejected(self, tmp_path, capsys):
        payload = {"name": "narrow", "N": 2, "L": 2, "K": 1,
                   "C": [[[[1.0, 0.0]], [[0.0, 0.0]]]]}
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(payload))
        message = "code 'narrow': matrix 0 has shape (2, 1), expected (2, 2)"
        with pytest.raises(CodeFormatError) as info:
            load_code(path, validate=False)
        assert str(info.value) == message
        assert main(["codes", "validate", "--code-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_code_without_matrices_rejected(self, tmp_path):
        payload = {"name": "empty", "N": 2, "L": 2, "K": 0, "C": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CodeFormatError, match="K=0"):
            load_code(path)
        with pytest.raises(CodeFormatError):
            OstbCode("empty", 2, 2, 0, ())

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_fails_validation(self, entry):
        c = np.eye(2, dtype=complex)
        c[1, 0] = entry
        report = validate_code(OstbCode("odd", 2, 2, 1, (c,)), 1e-9)
        assert not report.passed
        assert report.max_unit_error == np.inf
        assert report.max_pair_error == np.inf

    def test_builtin_names_constant(self):
        assert set(BUILTIN_CODE_NAMES) == {
            "alamouti", "alamouti-k3", "alamouti-k2", "scalar", "real2"}
