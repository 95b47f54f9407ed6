import csv
import io
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ostbc_blind import (BUILTIN_CODE_NAMES, CensusError, builtin_code,
                         compute_bspace, compute_bstar, draw_channel,
                         find_mstar, principal_angles, write_census_csv)
from ostbc_blind import census, estimator
from ostbc_blind.cli import census_summary, main
from ostbc_blind.estimator import _gaussian_channel
from ostbc_blind.ostbc import ChannelRealization

from oracles import (census_records_per_trial, exact_channel_dim,
                     exact_invariant_dim, real4x3)

# Dimensions fixed by the exact rational-arithmetic oracle (see oracles.py):
# for every builtin code the channel space already equals the invariant
# space at one receive antenna.
EXPECTED = {
    "alamouti": 4,
    "alamouti-k3": 1,
    "alamouti-k2": 2,
    "scalar": 1,
    "real2": 2,
}


class TestExactOracleAgreement:
    def test_invariant_dims(self, code):
        assert exact_invariant_dim(code) == EXPECTED[code.name]
        assert compute_bstar(code).dim == EXPECTED[code.name]

    @pytest.mark.parametrize("M", [1, 2])
    def test_channel_dims(self, code, M):
        assert exact_channel_dim(code, seed=3 * M + 1, M=M) == EXPECTED[code.name]


def histograms(result):
    """M -> {dim: count} over the per-trial dimensions of a census."""
    return {M: dict(Counter(result.dims[M - 1].tolist()))
            for M in result.M_range}


class TestDimensionCensus:
    """The per-M dimension histograms that find_mstar tabulates."""

    def test_scalar_always_one(self):
        result = find_mstar(builtin_code("scalar"), 3, 20, seed=0)
        assert histograms(result) == {1: {1: 20}, 2: {1: 20}, 3: {1: 20}}
        assert result.d_mode == {1: 1, 2: 1, 3: 1}

    def test_alamouti_m2(self, alamouti):
        result = find_mstar(alamouti, 2, 100, seed=1)
        assert histograms(result)[2] == {4: 100}

    def test_alamouti_m1_constant(self, alamouti):
        result = find_mstar(alamouti, 1, 100, seed=2)
        assert histograms(result) == {1: {4: 100}}
        assert result.d_mode == {1: 4}

    def test_rejects_bad_trials(self, alamouti):
        with pytest.raises(ValueError):
            find_mstar(alamouti, 1, 0, seed=0)

    def test_disagreeing_trials_raise_with_histogram(self, alamouti,
                                                     monkeypatch):
        original = census._channel_bases
        seen = []

        def every_third_larger(code, unit, H0, tol):
            dims, bases = original(code, unit, H0, tol)
            idx = np.arange(len(dims))
            larger = (len(seen) + idx + 1) % 3 == 0
            seen.extend(idx)
            return dims + larger, None if larger.any() else bases

        monkeypatch.setattr(census, "_channel_bases", every_third_larger)
        with pytest.raises(CensusError,
                           match=r"M=1: observed dimensions \{4: 4, 5: 2\}"):
            find_mstar(alamouti, 2, 6, seed=3)

    def test_disagreement_across_chunks_gives_the_whole_histogram(
            self, alamouti, monkeypatch):
        # two trials per pass; the second of three passes at M=1 reports
        # one dimension more, in agreement within its own pass
        monkeypatch.setattr(census, "CHUNK_BYTES", 2 * trial_bytes(alamouti, 1))
        original = census._channel_bases
        passes = []

        def second_pass_larger(code, unit, H0, tol):
            dims, bases = original(code, unit, H0, tol)
            passes.append(len(dims))
            if len(passes) == 2:
                grown = np.concatenate([bases, bases[:, -1:]], axis=1)
                return dims + 1, grown
            return dims, bases

        monkeypatch.setattr(census, "_channel_bases", second_pass_larger)
        with pytest.raises(CensusError,
                           match=r"M=1: observed dimensions \{4: 4, 5: 2\}"):
            find_mstar(alamouti, 1, 6, seed=3)
        assert passes == [2, 2, 2]

    def test_dimension_above_invariant_at_m_at_least_n_raises(self,
                                                              monkeypatch):
        # scalar has N = 1, so its channel spans C^N from M = 1 on: a basis
        # grown there breaks d(M) = dim B* although d(2) is back at dim B*.
        original = census._channel_bases

        def larger_at_one_antenna(code, unit, H0, tol):
            dims, bases = original(code, unit, H0, tol)
            if H0.shape[-1] == 1:
                dims = dims + 1
                bases = np.concatenate([bases, bases[:, -1:]], axis=1)
            return dims, bases

        monkeypatch.setattr(census, "_channel_bases", larger_at_one_antenna)
        with pytest.raises(CensusError,
                           match=r"^scalar M=1: dimension 2 is not the "
                                 r"invariant dimension 1 although M >= N=1$"):
            find_mstar(builtin_code("scalar"), 2, 5, seed=0)


def grown(dims, bases):
    """One dimension more: the last basis element repeated."""
    return dims + 1, np.concatenate([bases, bases[:, -1:]], axis=1)


def patch_at(monkeypatch, change, antennas):
    """Route census._channel_bases through ``change`` at the given M."""
    original = census._channel_bases

    def patched(code, unit, H0, tol):
        dims, bases = original(code, unit, H0, tol)
        if H0.shape[-1] in antennas:
            return change(dims, bases)
        return dims, bases

    monkeypatch.setattr(census, "_channel_bases", patched)


class TestTheoryChecks:
    """Each structural check of find_mstar fails the run on its own."""

    def test_dimension_below_invariant_raises(self, alamouti, monkeypatch):
        # a B(H) smaller than B* cannot contain it: the containment check
        # fails the pass at pi/2
        patch_at(monkeypatch, lambda d, b: (d - 1, b[:, :-1]), (1,))
        with pytest.raises(CensusError,
                           match=r"^alamouti M=1 trial 0: channel space misses "
                                 r"the invariant space by 1\.571e\+00 rad, "
                                 r"above 1e-08$"):
            find_mstar(alamouti, 1, 5, seed=0)

    def test_dimension_increase_raises(self, monkeypatch):
        patch_at(monkeypatch, grown, (2,))
        with pytest.raises(CensusError,
                           match=r"^alamouti-k2: modal dimension increased "
                                 r"from 2 to 3 at M=2$"):
            find_mstar(builtin_code("alamouti-k2"), 2, 5, seed=0)

    def test_stall_above_invariant_raises(self, monkeypatch):
        # the 4x3 design's dimension 2 at M = 1 held at M = 2
        patch_at(monkeypatch, grown, (2,))
        with pytest.raises(CensusError,
                           match=r"^real4x3: modal dimension stalled at 2 above "
                                 r"the invariant dimension 1 between M=1 and "
                                 r"M=2$"):
            find_mstar(real4x3(), 2, 5, seed=0)

    def test_mismatch_past_mstar_raises(self, alamouti, monkeypatch):
        # B* lies inside every B(H): a basis turned off it at M = 2, past
        # M* = 1, fails the run and names the trial and the angle
        patch_at(monkeypatch, rotated_off_bstar(3, 1e-3), (2,))
        with pytest.raises(CensusError,
                           match=r"^alamouti M=2 trial 3: channel space misses "
                                 r"the invariant space by 1\.000e-03 rad, "
                                 r"above 1e-08$"):
            find_mstar(alamouti, 2, 5, seed=0)

    def test_basis_off_bstar_fails_the_cli_run(self, alamouti, monkeypatch,
                                               tmp_path, capsys):
        patch_at(monkeypatch, rotated_off_bstar(0, 1e-3), (2,))
        csv_path, json_path = tmp_path / "c.csv", tmp_path / "c.json"
        status = main(["census", "--code", "alamouti", "--rx-max", "3",
                       "--trials", "5", "--seed", "0", "--csv", str(csv_path),
                       "--json", str(json_path)])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: alamouti M=2 trial 0: channel space misses the invariant "
            "space by 1.000e-03 rad, above 1e-08"]
        assert not csv_path.exists() and not json_path.exists()

    def test_results_above_the_budget(self, alamouti, monkeypatch):
        # 10 trials at M = 1..3: two arrays of 16 * 30 = 480 bytes, and the
        # 288-byte draw of one 2 x 3 channel
        def draw(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(estimator, "MAX_BYTES", 767)
        monkeypatch.setattr(census, "_gaussian_channel", draw)
        with pytest.raises(ValueError,
                           match=r"^--rx-max 3 --trials 10 needs 768 bytes, "
                                 r"above the budget of 767 bytes$"):
            find_mstar(alamouti, 3, 10, seed=0)
        monkeypatch.setattr(estimator, "MAX_BYTES", 768)
        with pytest.raises(AssertionError, match="was drawn"):
            find_mstar(alamouti, 3, 10, seed=0)


def rotated_off_bstar(trial, angle):
    """A change for :func:`patch_at`: the trial's second basis element
    turned by ``angle`` towards (E_11 - E_22)/sqrt(2), a unit matrix
    orthogonal to I and to every skew matrix, so the basis stays
    orthonormal and of the same dimension but misses B* by ``angle``."""
    def change(dims, bases):
        bases = bases.copy()
        K = bases.shape[-1]
        turn = np.zeros((K, K))
        turn[0, 0], turn[1, 1] = np.sqrt(0.5), -np.sqrt(0.5)
        bases[trial, 1] = np.cos(angle) * bases[trial, 1] + np.sin(angle) * turn
        return dims, bases
    return change


def as_rows(dims, angles):
    """(M, trial, dim, repr(angle)) per trial, so equality is bitwise."""
    return [(M, trial, dim, repr(angle))
            for M, (row_d, row_a) in enumerate(zip(dims.tolist(),
                                                   angles.tolist()), start=1)
            for trial, (dim, angle) in enumerate(zip(row_d, row_a))]


def trial_bytes(code, M):
    """Bytes of one census trial: its channel draw, which peaks at three
    arrays of 16 N M bytes, and its kernel matrix, the images of I and of
    the K(K-1)/2 skew units through at most N columns."""
    K = code.K
    kernel = 2 * code.L * K * min(M, code.N) * (1 + K * (K - 1) // 2) * 8
    return 3 * 16 * code.N * M + kernel


class TestBatchedCensus:
    """find_mstar stacks trials; results equal one-trial-at-a-time runs."""

    @pytest.mark.parametrize("seed", [5, 123])
    def test_matches_per_trial_oracle(self, code, seed):
        result = find_mstar(code, code.N + 1, 12, seed)
        oracle = census_records_per_trial(code, code.N + 1, 12, seed)
        assert as_rows(result.dims, result.angles) == as_rows(*oracle)

    @pytest.mark.parametrize("name", BUILTIN_CODE_NAMES + ("real4x3",))
    def test_angles_match_principal_angles(self, name):
        # the angles measured on the kernel's bases as they are agree with
        # principal_angles, which orthonormalizes both bases first
        code = real4x3() if name == "real4x3" else builtin_code(name)
        result = find_mstar(code, code.N + 1, 20, seed=5)
        bstar = compute_bstar(code)
        for M in result.M_range:
            rng = np.random.default_rng([5, M])
            for angle in result.angles[M - 1]:
                sub = compute_bspace(code, draw_channel(code.N, M, rng))
                reference = np.max(principal_angles(sub.basis, bstar.basis))
                assert abs(angle - reference) <= 1e-14, (M, angle, reference)

    def test_channel_draws_independent_of_chunk_sizes(self):
        whole = _gaussian_channel(2, 3, np.random.default_rng([8, 3]), 1000)
        rng = np.random.default_rng([8, 3])
        parts = [_gaussian_channel(2, 3, rng, n) for n in (3, 500, 497)]
        assert np.array_equal(np.concatenate(parts), whole)
        # trial t holds the t-th draw_channel of the stream
        rng = np.random.default_rng([8, 3])
        for H0 in whole[:4]:
            assert np.array_equal(draw_channel(2, 3, rng).H0, H0)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries(self, code, monkeypatch, offset):
        # Budget for 4 trials at M=2, so more at M=1 and fewer at M=3.
        monkeypatch.setattr(census, "CHUNK_BYTES", 4 * trial_bytes(code, 2))
        chunks = [census._chunk_trials(code, M) for M in (1, 2, 3)]
        assert chunks[0] > chunks[1] == 4 > chunks[2] >= 2, chunks
        trials = 4 + offset
        result = find_mstar(code, 3, trials, seed=17)
        oracle = census_records_per_trial(code, 3, trials, seed=17)
        assert as_rows(result.dims, result.angles) == as_rows(*oracle)

    def test_stacked_svd_count(self, alamouti, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        find_mstar(alamouti, 3, 100, 5)
        # B*'s kernel, then per M one pass of 100 trials with two SVDs: the
        # skew kernels (16 rows per antenna up to N = 2) and the
        # containment residuals
        pass_at = [[(100, 16 * min(M, 2), 6), (100, 16, 4)] for M in (1, 2, 3)]
        assert calls == [(1, 32, 6)] + sum(pass_at, [])

    def test_chunk_counts_the_draw_and_the_factor_matrix(self, alamouti):
        # alamouti (N = 2, L = 2, K = 4) at M = 64: a 6144-byte draw and a
        # 32 x 7 kernel matrix of 1792 bytes, the size it has at any M >= N
        assert census._chunk_trials(alamouti, 64) == (1 << 22) // 7936
        assert census._chunk_trials(alamouti, 1) == 1024
        assert census._chunk_trials(alamouti, 2 ** 16) == 1

    def test_memory_bounded_by_chunk(self, alamouti, monkeypatch):
        monkeypatch.setattr(census, "CHUNK_BYTES",
                            64 * trial_bytes(alamouti, 1))
        chunk = census._chunk_trials(alamouti, 1)
        assert chunk == 64

        def peak(trials):
            tracemalloc.start()
            try:
                find_mstar(alamouti, 1, trials, seed=11)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(chunk)  # warm up lazy imports and caches
        assert peak(5 * chunk) < 2 * peak(chunk)

    def test_result_retains_two_numbers_per_trial(self):
        scalar = builtin_code("scalar")

        def retained_and_peak(trials):
            tracemalloc.start()
            try:
                result = find_mstar(scalar, 1, trials, seed=1)
                assert result.dims.shape == (1, trials)
                return np.array(tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()

        retained_and_peak(100)  # warm up lazy imports and caches
        # the result holds one int and one float per trial: 16 B; a pass
        # holds at most 1024 trials, so the peak grows by no more
        per_trial = (retained_and_peak(10000)
                     - retained_and_peak(2500)) / 7500
        assert (per_trial <= 24).all(), per_trial


class TestFindMstar:
    def test_expected_tables(self, code):
        result = find_mstar(code, 4, 25, seed=9)
        assert result.d_star == EXPECTED[code.name]
        assert result.M_star == 1
        assert all(result.d_mode[m] == EXPECTED[code.name] for m in (1, 2, 3, 4))

    def test_mstar_at_most_n(self, code):
        result = find_mstar(code, code.N, 25, seed=4)
        assert result.M_star is not None
        assert result.M_star <= code.N

    def test_records_cover_all_trials(self, alamouti):
        result = find_mstar(alamouti, 2, 10, seed=5)
        assert result.dims.shape == result.angles.shape == (2, 10)
        assert (result.dims == 4).all()
        assert (result.angles <= 1e-8).all()

    @pytest.mark.parametrize("name", ["alamouti-k2", "real2"])
    def test_angles_at_tight_tolerance(self, name):
        # the identity-first basis keeps the rounding of the kernel's SVD
        result = find_mstar(builtin_code(name), 4, 20000, seed=1, tol=1e-12)
        assert result.M_star == 1
        assert result.angles.max() <= 1e-13

    def test_deterministic(self, alamouti):
        a = find_mstar(alamouti, 2, 5, seed=6)
        b = find_mstar(alamouti, 2, 5, seed=6)
        assert as_rows(a.dims, a.angles) == as_rows(b.dims, b.angles)

    def test_result_arrays_are_read_only(self, alamouti):
        result = find_mstar(alamouti, 2, 3, seed=5)
        for array in (result.dims, result.angles):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0

    def test_rejects_bad_args(self, alamouti):
        with pytest.raises(ValueError):
            find_mstar(alamouti, 0, 5, seed=0)
        with pytest.raises(ValueError):
            find_mstar(alamouti, 1, 0, seed=0)


class TestAppendingAntenna:
    def test_extra_column_never_increases_dimension(self, code, rng):
        for _ in range(10):
            ch = draw_channel(code.N, 1, rng)
            extra = draw_channel(code.N, 1, rng)
            wider = ChannelRealization.from_matrix(
                np.hstack([ch.H0, extra.H0]))
            d1 = compute_bspace(code, ch).dim
            d2 = compute_bspace(code, wider).dim
            assert d2 <= d1


class TestOutputs:
    def test_csv_rows(self, tmp_path, alamouti):
        result = find_mstar(alamouti, 2, 5, seed=7)
        path = tmp_path / "census.csv"
        write_census_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["code", "M", "trial", "dim",
                           "max_principal_angle_to_bstar"]
        assert len(rows) == 1 + 10
        assert rows[1][:4] == ["alamouti", "1", "0", "4"]

    @pytest.mark.parametrize("chunked", [False, True])
    def test_csv_bytes_match_per_trial_oracle(self, code, tmp_path,
                                              monkeypatch, chunked):
        if chunked:
            # two trials per pass at M=1 and one at every larger M
            monkeypatch.setattr(census, "CHUNK_BYTES",
                                2 * trial_bytes(code, 1))
            assert census._chunk_trials(code, 1) == 2
        M_max, trials = code.N + 1, 5
        path = tmp_path / "census.csv"
        write_census_csv(find_mstar(code, M_max, trials, seed=21), path)
        dims, angles = census_records_per_trial(code, M_max, trials, seed=21)
        lines = ["code,M,trial,dim,max_principal_angle_to_bstar"]
        lines += [f"{code.name},{M},{trial},{dim},{angle_repr}"
                  for M, trial, dim, angle_repr in as_rows(dims, angles)]
        assert path.read_bytes() == "".join(
            line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"', "100%d", "", "x\ny"])
    def test_csv_quotes_code_name_as_csv_writer(self, name, tmp_path,
                                                alamouti, monkeypatch):
        # two trials per formatted chunk, so the rows cross chunks
        monkeypatch.setattr(census, "CHUNK_NUMBERS", 2)
        result = find_mstar(alamouti, 2, 5, seed=7)
        result = census.CensusResult(*(name if field == "code" else
                                       getattr(result, field)
                                       for field in result._fields))
        path = tmp_path / "census.csv"
        write_census_csv(result, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["code", "M", "trial", "dim",
                         "max_principal_angle_to_bstar"])
        for M, dims, angles in zip(result.M_range, result.dims,
                                   result.angles):
            writer.writerows([name, M, t, dim, repr(angle)] for t, (dim, angle)
                             in enumerate(zip(dims.tolist(), angles.tolist())))
        assert path.read_bytes() == expected.getvalue().encode()

    def test_summary_json(self, alamouti):
        result = find_mstar(alamouti, 3, 5, seed=8)
        summary = census_summary(result)
        assert summary["d_star"] == 4
        assert summary["M_star"] == 1
        assert summary["d_mode"] == {"1": 4, "2": 4, "3": 4}
        json.dumps(summary)  # must be serializable

    def test_error_type_exists(self):
        assert issubclass(CensusError, RuntimeError)
