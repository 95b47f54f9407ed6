import csv
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ostbc_blind import (CensusError, builtin_code, census_summary,
                         channel_kernel_matrix, compute_bspace, compute_bstar,
                         draw_channel, find_mstar, write_census_csv)
from ostbc_blind import census
from ostbc_blind.ostbc import ChannelRealization

from oracles import (census_records_per_trial, exact_channel_dim,
                     exact_invariant_dim)

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
        monkeypatch.setattr(census, "CHUNK_BYTES",
                            2 * kernel_matrix_bytes(alamouti, 1))
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


def as_rows(dims, angles):
    """(M, trial, dim, repr(angle)) per trial, so equality is bitwise."""
    return [(M, trial, dim, repr(angle))
            for M, (row_d, row_a) in enumerate(zip(dims.tolist(),
                                                   angles.tolist()), start=1)
            for trial, (dim, angle) in enumerate(zip(row_d, row_a))]


def kernel_matrix_bytes(code, M):
    return channel_kernel_matrix(code, np.ones((code.N, M))).nbytes


class TestBatchedCensus:
    """find_mstar stacks trials; results equal one-trial-at-a-time runs."""

    @pytest.mark.parametrize("seed", [5, 123])
    def test_matches_per_trial_oracle(self, code, seed):
        result = find_mstar(code, code.N + 1, 12, seed)
        oracle = census_records_per_trial(code, code.N + 1, 12, seed)
        assert as_rows(result.dims, result.angles) == as_rows(*oracle)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries(self, code, monkeypatch, offset):
        # Budget for 8 trials at M=1, so 4 at M=2 and 2 at M=3.
        monkeypatch.setattr(census, "CHUNK_BYTES",
                            8 * kernel_matrix_bytes(code, 1))
        assert [census._chunk_trials(code, M) for M in (1, 2, 3)] == [8, 4, 2]
        trials = 4 + offset
        result = find_mstar(code, 3, trials, seed=17)
        oracle = census_records_per_trial(code, 3, trials, seed=17)
        assert as_rows(result.dims, result.angles) == as_rows(*oracle)

    def test_stacked_svd_count(self, alamouti, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        find_mstar(alamouti, 4, 100, 5)
        # B*: its kernel and its orthonormal basis; per M: the kernels,
        # the trials' orthonormal bases and the two angle steps.
        assert len(calls) <= 2 + 4 * 4, calls

    def test_memory_bounded_by_chunk(self, alamouti, monkeypatch):
        monkeypatch.setattr(census, "CHUNK_BYTES",
                            64 * kernel_matrix_bytes(alamouti, 1))
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
        per_trial = (retained_and_peak(80000)
                     - retained_and_peak(20000)) / 60000
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
                                2 * kernel_matrix_bytes(code, 1))
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

    def test_summary_json(self, alamouti):
        result = find_mstar(alamouti, 3, 5, seed=8)
        summary = census_summary(result)
        assert summary["d_star"] == 4
        assert summary["M_star"] == 1
        assert summary["d_mode"] == {"1": 4, "2": 4, "3": 4}
        json.dumps(summary)  # must be serializable

    def test_error_type_exists(self):
        assert issubclass(CensusError, RuntimeError)
