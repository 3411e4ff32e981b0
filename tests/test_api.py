import xorcast


def test_all_names_resolve():
    # a stale __all__ entry still imports but breaks `from xorcast import *`
    missing = [name for name in xorcast.__all__ if not hasattr(xorcast, name)]
    assert not missing
