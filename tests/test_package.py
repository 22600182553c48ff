"""The package's public surface: what ``from dvokit import *`` exports."""

import dvokit


def test_star_import_resolves_every_exported_name():
    namespace = {}
    # A stale entry in __all__ fails here, at the star-import.
    exec("from dvokit import *", namespace)
    assert len(dvokit.__all__) == len(set(dvokit.__all__))
    assert [name for name in dvokit.__all__ if name not in namespace] == []
