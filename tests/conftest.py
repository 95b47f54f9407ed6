import numpy as np
import pytest

from ostbc_blind import BUILTIN_CODE_NAMES, builtin_code
from oracles import rotated_alamouti


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture(params=BUILTIN_CODE_NAMES)
def code(request):
    return builtin_code(request.param)


@pytest.fixture
def alamouti():
    return builtin_code("alamouti")


ROTATED = {c.name: c for c in (rotated_alamouti(3), rotated_alamouti(4))}


@pytest.fixture(params=BUILTIN_CODE_NAMES + tuple(ROTATED))
def any_code(request):
    """Every builtin code, and two whose blocks have irrational entries."""
    return ROTATED.get(request.param) or builtin_code(request.param)
