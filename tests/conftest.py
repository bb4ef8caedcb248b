import pytest

from modtwist import factorization, mcurve, psl2


def _clear_memos():
    factorization.analyze.cache_clear()
    psl2._classify_full.cache_clear()
    mcurve._cutting_diagram.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts and ends with empty per-element memos, so an entry
    computed under a monkeypatch never reaches another test."""
    _clear_memos()
    yield
    _clear_memos()
