"""The package's export list matches what ``import hardycheck`` binds."""

from __future__ import annotations

import types

import hardycheck


def test_all_lists_exactly_the_public_names_bound_in_the_package() -> None:
    bound = {
        name
        for name, value in vars(hardycheck).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType) and name != "annotations"
    }
    assert len(set(hardycheck.__all__)) == len(hardycheck.__all__)
    assert set(hardycheck.__all__) == bound
    assert all(hasattr(hardycheck, name) for name in hardycheck.__all__)
