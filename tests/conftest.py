import math
import sys

import numpy as np
import pytest

from pnormcert import exppoly


class KernelCalls(list):
    """The points of every ``exppoly._parts`` call, one flat array per call,
    and in ``callers`` the name of the function that made each call
    (through ``_chunked_parts`` or directly).

    A call that would take the points evaluated past ``limit`` fails before
    it evaluates, so a runaway search stops before it allocates.
    """

    limit = math.inf

    def __init__(self):
        super().__init__()
        self.callers: list[str] = []

    def clear(self) -> None:
        super().clear()
        self.callers.clear()

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
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_chunked_parts":
            caller = caller.f_back
        calls.callers.append(caller.f_code.co_name)
        calls.append(np.asarray(ps).reshape(-1).copy())
        assert calls.points <= calls.limit
        return real(f, ps, *args, **kwargs)

    monkeypatch.setattr(exppoly, "_parts", spy)
    return calls
