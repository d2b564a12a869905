from repro.core.results import duration_cell, kb_cell, render_table


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2]
        assert lines[3].endswith("2")

    def test_non_string_cells(self):
        text = render_table(["x"], [[42]])
        assert "42" in text


class TestCells:
    def test_duration(self):
        assert duration_cell(None) == "-"
        assert duration_cell(65) == "1m 05s"

    def test_kb(self):
        assert kb_cell(2048) == "2"
        assert kb_cell(10 * 1024 * 1024) == "10,240"

