import csv
import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from ostbc_blind import (CensusError, builtin_code, census_summary,
                         compute_bspace, compute_bstar, draw_channel,
                         find_mstar, write_census_csv)
from ostbc_blind import census
from ostbc_blind.ostbc import ChannelRealization

from oracles import exact_channel_dim, exact_invariant_dim

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
    """M -> {dim: count} over the per-trial records of a census."""
    hist = {M: Counter() for M in result.M_range}
    for r in result.records:
        hist[r.M][r.dim] += 1
    return {M: dict(h) for M, h in hist.items()}


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
        original = census.compute_bspace
        calls = []

        def every_third_larger(code, channel, tol):
            sub = original(code, channel, tol)
            calls.append(sub)
            if len(calls) % 3 == 0:
                sub = dataclasses.replace(sub, dim=sub.dim + 1)
            return sub

        monkeypatch.setattr(census, "compute_bspace", every_third_larger)
        with pytest.raises(CensusError,
                           match=r"M=1: observed dimensions \{4: 4, 5: 2\}"):
            find_mstar(alamouti, 2, 6, seed=3)


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
        assert len(result.records) == 20
        assert all(r.max_angle_to_bstar <= 1e-8 for r in result.records)

    def test_deterministic(self, alamouti):
        a = find_mstar(alamouti, 2, 5, seed=6)
        b = find_mstar(alamouti, 2, 5, seed=6)
        assert a.records == b.records

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

    def test_summary_json(self, alamouti):
        result = find_mstar(alamouti, 3, 5, seed=8)
        summary = census_summary(result)
        assert summary["d_star"] == 4
        assert summary["M_star"] == 1
        assert summary["d_mode"] == {"1": 4, "2": 4, "3": 4}
        json.dumps(summary)  # must be serializable

    def test_error_type_exists(self):
        assert issubclass(CensusError, RuntimeError)
