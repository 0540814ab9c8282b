import pytest

from dynrmst._blas import _openblas_threads


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count getter, with the caller's count set above
    1 for the test and restored after it."""
    # numpy wheels bundle scipy-openblas, whose symbols must be found
    fns = _openblas_threads()
    assert fns is not None
    get, put = fns
    before = get()
    put(max(before, 2))
    yield get
    put(before)
