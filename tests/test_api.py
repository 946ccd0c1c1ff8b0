"""The public API: what ``ciforge.__all__`` names."""

from __future__ import annotations

import ciforge


def test_all_names_resolve_once_in_case_insensitive_order():
    names = ciforge.__all__
    missing = [name for name in names if not hasattr(ciforge, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names, key=str.lower)
