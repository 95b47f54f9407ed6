"""float_text against repr: the same text for every float64, byte for byte."""

import numpy as np
import pytest

from ostbc_blind._floattext import CHUNK_NUMBERS, float_text


def assert_repr_text(values, chunk=1 << 16):
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), chunk):
        part = values[start:start + chunk]
        got = float_text(part, (",",))
        want = ",".join(map(repr, part.tolist()))
        if got != want:
            pairs = zip(got.split(","), want.split(","))
            bad = [(g, w) for g, w in pairs if g != w]
            raise AssertionError(f"float_text differs from repr: {bad[:5]}")


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    return np.concatenate([values, np.nextafter(values, np.inf),
                           np.nextafter(values, -np.inf)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


def test_standard_normals(rng):
    assert_repr_text(rng.standard_normal(10 ** 6))


def test_log_uniform_both_signs(rng):
    n = 10 ** 6
    assert_repr_text(10.0 ** rng.uniform(-8, 18, n) * rng.choice([-1, 1], n))


@pytest.mark.parametrize("decimals", [3, 6])
def test_rounded_decimals(rng, decimals):
    assert_repr_text(np.round(rng.standard_normal(10 ** 5) * 1000, decimals))


def test_dyadic_fractions(rng):
    n = 10 ** 5
    k = rng.integers(1, 2 ** 30, n)
    assert_repr_text(k / 2.0 ** rng.integers(0, 60, n))


def test_integers():
    assert_repr_text(np.arange(1, 10 ** 5 + 1))


def test_random_bit_patterns(rng):
    bits = rng.integers(0, 2 ** 64, 2 * 10 ** 5, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_repr_text(values[np.isfinite(values)])


def test_boundaries():
    assert_repr_text(neighbours(np.concatenate([
        2.0 ** np.arange(-1074, 1024),
        [1e-4, 1e15, 1e16, 5e-324, 0.0, 1e308, 0.1, 9.5, 99.5]])))


def test_non_finite():
    assert_repr_text([np.nan, -np.inf, 1.5, np.inf, -0.0])


def test_fast_and_fallback_interleaved(rng):
    # one chunk mixing positional numbers with powers of two, numbers
    # outside [1e-4, 1e15), zeros and non-finite values
    values = rng.standard_normal(CHUNK_NUMBERS)
    values[1::5] = 2.0 ** rng.integers(-60, 60, len(values[1::5]))
    values[2::7] = rng.standard_normal(len(values[2::7])) * 1e-9
    values[3::11] = rng.standard_normal(len(values[3::11])) * 1e20
    values[4::13] = 0.0
    values[5::17] = -0.0
    values[6::19] = np.nan
    assert_repr_text(values)
    for size in (1, 2, 3, 7):
        assert_repr_text(values[:64], chunk=size)


def test_separators_cycle(rng):
    values = rng.standard_normal(12)
    values[4] = 1e-300          # one number left to repr, beside a "%"
    seps = (", ", "%|", "\n[\n")
    want = "".join(repr(v) + seps[i % 3]
                   for i, v in enumerate(values.tolist()))[:-len(seps[2])]
    assert float_text(values, seps) == want


def test_empty():
    assert float_text(np.empty(0), (",",)) == ""
