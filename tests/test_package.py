"""The package namespace: __all__ lists exactly the public names it binds."""

import types

import boundstate_lab


def test_all_is_sorted_unique_and_matches_the_bound_names():
    names = boundstate_lab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    bound = {name for name, value in vars(boundstate_lab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == bound
