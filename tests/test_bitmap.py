"""Unit tests for the Lazy Search enablement bitmap."""

import pytest

from repro.search import ScanBitmap

from .util import graph_from_tuples


class TestScanBitmap:
    def test_leaf_zero_always_enabled(self):
        bitmap = ScanBitmap(num_leaves=3)
        assert bitmap.enabled("v", 0)
        assert not bitmap.enable("v", 0)  # implicit, nothing to set

    def test_other_leaves_start_disabled(self):
        bitmap = ScanBitmap(num_leaves=3)
        assert not bitmap.enabled("v", 1)
        assert not bitmap.enabled("v", 2)

    def test_enable_returns_freshness(self):
        bitmap = ScanBitmap(num_leaves=3)
        assert bitmap.enable("v", 1)
        assert not bitmap.enable("v", 1)
        assert bitmap.enabled("v", 1)

    def test_bits_are_per_vertex(self):
        bitmap = ScanBitmap(num_leaves=3)
        bitmap.enable("v", 1)
        assert not bitmap.enabled("w", 1)

    def test_bits_are_per_leaf(self):
        bitmap = ScanBitmap(num_leaves=4)
        bitmap.enable("v", 2)
        assert not bitmap.enabled("v", 1)
        assert not bitmap.enabled("v", 3)

    def test_out_of_range_rejected(self):
        bitmap = ScanBitmap(num_leaves=2)
        with pytest.raises(IndexError):
            bitmap.enable("v", 2)
        with pytest.raises(IndexError):
            bitmap.enable("v", -1)

    def test_needs_at_least_one_leaf(self):
        with pytest.raises(ValueError):
            ScanBitmap(num_leaves=0)

    def test_enable_all(self):
        bitmap = ScanBitmap(num_leaves=3)
        bitmap.enable("b", 1)
        fresh = bitmap.enable_all(["a", "b", "c"], 1)
        assert fresh == ["a", "c"]

    def test_rows_and_clear(self):
        bitmap = ScanBitmap(num_leaves=3)
        bitmap.enable("a", 1)
        bitmap.enable("b", 2)
        assert bitmap.rows() == 2
        bitmap.clear()
        assert bitmap.rows() == 0

    def test_compact_drops_evicted_vertices(self):
        graph = graph_from_tuples([("a", "b", "T")])
        bitmap = ScanBitmap(num_leaves=2)
        bitmap.enable("a", 1)
        bitmap.enable("ghost", 1)
        dropped = bitmap.compact(graph)
        assert dropped == 1
        assert bitmap.enabled("a", 1)
        assert not bitmap.enabled("ghost", 1)

    def test_load_replaces_state_in_place(self):
        """A checkpoint restore loads rows into the existing dict: compiled
        Lazy handlers hold its bound ``get``."""
        bitmap = ScanBitmap(num_leaves=3)
        bitmap.enable("stale", 1)
        get = bitmap._rows.get
        bitmap.load({"a": 0b10, "b": 0b110})
        assert get("stale") is None
        assert get("a") == 0b10
        assert bitmap.enabled("b", 2) and not bitmap.enabled("a", 2)
        assert bitmap.rows() == 2
