"""Tests for the package's public namespace."""

import qfdiv


def test_every_export_resolves_once():
    assert len(set(qfdiv.__all__)) == len(qfdiv.__all__)
    missing = [name for name in qfdiv.__all__ if getattr(qfdiv, name, None) is None]
    assert missing == []
