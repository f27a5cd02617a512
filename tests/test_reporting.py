"""Tests for the shared report rendering."""

from repro.reporting import print_table, render_table


class TestRenderTable:
    def test_contains_title_and_cells(self):
        text = render_table("My Title", ["a", "b"], [[1, 2], [30, 40]])
        assert "=== My Title ===" in text
        assert "30" in text
        assert "b" in text

    def test_columns_aligned(self):
        text = render_table("t", ["col"], [["x"], ["longer-value"]])
        lines = text.splitlines()
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # header rule and rows share the width

    def test_empty_rows(self):
        text = render_table("t", ["a"], [])
        assert "=== t ===" in text

    def test_print_table(self, capsys):
        print_table("t", ["a"], [[5]])
        assert "5" in capsys.readouterr().out
