import math

import numpy as np
import pytest

from pnormcert import exppoly


class KernelCalls(list):
    """The points of every ``exppoly._parts`` call, one flat array per call.

    A call that would take the points evaluated past ``limit`` fails before
    it evaluates, so a runaway search stops before it allocates.
    """

    limit = math.inf

    @property
    def points(self) -> int:
        return sum(c.size for c in self)


@pytest.fixture
def kernel_calls(monkeypatch) -> KernelCalls:
    """Records every kernel call of the test from here on; each call is
    forwarded to the real kernel with all its arguments."""
    calls = KernelCalls()
    real = exppoly._parts

    def spy(f, ps, *args, **kwargs):
        calls.append(np.asarray(ps).reshape(-1).copy())
        assert calls.points <= calls.limit
        return real(f, ps, *args, **kwargs)

    monkeypatch.setattr(exppoly, "_parts", spy)
    return calls
