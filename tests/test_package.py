"""The package's public names."""

import convexcell


def test_every_export_exists_once():
    missing = [name for name in convexcell.__all__ if not hasattr(convexcell, name)]
    assert missing == []
    assert len(set(convexcell.__all__)) == len(convexcell.__all__)
