"""The lazily imported top-level names of the package."""

import invpos


def test_every_exported_name_resolves():
    # A name left in the export table after its definition was deleted
    # fails only when first looked up, so look every one up here.
    missing = [name for name in invpos.__all__ if not hasattr(invpos, name)]
    assert not missing
