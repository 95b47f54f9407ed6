import numpy as np
import pytest

from ostbc_blind import BUILTIN_CODE_NAMES, builtin_code
from oracles import real4x3, rotated_alamouti


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


WIDER = dict(ROTATED, real4x3=real4x3())


@pytest.fixture(params=BUILTIN_CODE_NAMES + tuple(WIDER))
def every_code(request):
    """Every code of :func:`any_code`, and the real 4 x 3 design, whose
    channel space reaches the invariant space only at two antennas."""
    return WIDER.get(request.param) or builtin_code(request.param)
