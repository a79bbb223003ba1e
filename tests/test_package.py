from types import ModuleType

import polyvol


def test_all_lists_only_functions_and_classes():
    for name in polyvol.__all__:
        assert not isinstance(getattr(polyvol, name), ModuleType), name
