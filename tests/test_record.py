import numpy as np
import pytest

from ostbc_blind import (AmbiguitySubspace, CodeFormatError, ConstellationModel,
                         KyFanSampleReport, OstbCode, SimulationConfig,
                         builtin_code, compute_bstar, realify, validate_code)
from ostbc_blind.ostbc import ValidationReport


def scalar_matrices():
    return (np.array([[1.0 + 0j]]),)


class TestConstructor:
    def test_positional_and_keyword(self):
        a = OstbCode("s", 1, 1, 1, scalar_matrices())
        b = OstbCode(C=scalar_matrices(), K=1, L=1, N=1, name="s")
        c = OstbCode("s", 1, 1, K=1, C=scalar_matrices())
        for code in (a, b, c):
            assert (code.name, code.N, code.L, code.K) == ("s", 1, 1, 1)
            assert code.C[0][0, 0] == 1

    def test_default(self):
        code = builtin_code("scalar")
        sub = AmbiguitySubspace(code, "invariant", None, 1, (np.eye(1),), 1e-9)
        assert sub.seed is None
        assert AmbiguitySubspace(code, "channel", 1, 1, (np.eye(1),), 1e-9,
                                 seed=4).seed == 4

    @pytest.mark.parametrize("args, kwargs, message", [
        (("s", 1, 1, 1), {}, "missing argument 'C'"),
        (("s", 1, 1, 1, (), 5), {}, "takes 5 arguments but 6 were given"),
        (("s", 1, 1, 1, ()), {"D": 1}, "unexpected keyword argument 'D'"),
        (("s", 1, 1, 1, ()), {"K": 1}, "multiple values for argument 'K'"),
    ])
    def test_bad_arguments(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            OstbCode(*args, **kwargs)

    def test_post_init_validates(self):
        with pytest.raises(CodeFormatError, match="declares K=2"):
            OstbCode("s", 1, 1, 2, scalar_matrices())
        with pytest.raises(ValueError, match="block count"):
            SimulationConfig(builtin_code("scalar"), 1,
                             ConstellationModel.iid_pm1(1), 0, 0.1, 1)

    def test_post_init_may_replace_a_field(self):
        code = OstbCode("s", 1, 1, 1, [[[1.0]]])
        assert isinstance(code.C, tuple)
        assert code.C[0].dtype == complex and not code.C[0].flags.writeable


class TestImmutable:
    @pytest.mark.parametrize("record", [
        builtin_code("alamouti"), compute_bstar(builtin_code("real2")),
        validate_code(builtin_code("scalar"), 1e-12)], ids=type)
    def test_assignment_and_deletion_raise(self, record):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            record.name = "other"
        with pytest.raises(AttributeError, match="cannot delete field"):
            del record.tol
        with pytest.raises(AttributeError):
            record.extra = 1


class TestReprAndEquality:
    def test_repr_hides_array_fields(self):
        code = builtin_code("alamouti")
        assert repr(code) == "OstbCode(name='alamouti', N=2, L=2, K=4)"
        rc = realify(code, 3)
        assert repr(rc) == f"RealifiedCode(code={code!r}, M=3)"
        assert repr(ConstellationModel.gaussian(2)) == \
            "ConstellationModel(kind='gaussian')"

    def test_scalar_records_compare_and_hash_by_value(self):
        a = ValidationReport("x", 0.0, 1e-13, 1e-12)
        b = ValidationReport("x", 0.0, 1e-13, 1e-12)
        assert a == b and hash(a) == hash(b)
        assert a != ValidationReport("x", 0.0, 2e-13, 1e-12)
        report = KyFanSampleReport(6, 3, 10, 1, 2.0, 2.0, 1.5, 0, True)
        assert report != (6, 3, 10, 1, 2.0, 2.0, 1.5, 0, True)
        assert repr(report) == ("KyFanSampleReport(m=6, q=3, samples=10, seed=1, "
                                "value=2.0, bound=2.0, max_trace=1.5, n_near=0, "
                                "passed=True)")

    def test_fields_live_in_the_instance(self):
        rc = realify(builtin_code("scalar"), 2)
        assert list(vars(rc)) == ["code", "M", "blocks"]
