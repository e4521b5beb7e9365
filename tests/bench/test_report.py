"""The ``repro bench trend`` terminal view and its sparklines."""

from repro.bench import analyze_history, format_trends, load_history, record_run
from repro.report import render_sparkline

from .records import OBSERVE, stepped


def stepped_history(tmp_path):
    """Ten runs; ``report/wall_s`` and the observe_month layer step at run 7."""
    hist = tmp_path / "history"
    for i in range(10):
        record_run(hist, stepped(i, 6), written=f"2026-01-{i + 1:02d}")
    return load_history(hist)


class TestRenderSparkline:
    def test_levels_follow_values(self):
        line = render_sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█" and len(line) == 4

    def test_constant_series_renders_low(self):
        assert render_sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_width_keeps_the_tail(self):
        line = render_sparkline([0.0] * 10 + [9.0], width=4)
        assert len(line) == 4 and line[-1] == "█"

    def test_marks_and_nonfinite(self):
        line = render_sparkline([1.0, float("nan"), 2.0, 3.0], marks=[3])
        assert line[1] == " " and line[3] == "|"

    def test_empty(self):
        assert render_sparkline([]) == ""


class TestFormatTrends:
    def test_terminal_view_names_step_and_counter(self, tmp_path):
        h = stepped_history(tmp_path)
        text = format_trends(analyze_history(h), h)
        assert "10 run(s)" in text
        assert "report/wall_s" in text and "window-ooc/wall_s" in text
        assert "report/wall_s: first seen at run 7" in text
        assert f"{OBSERVE} +1428.6%" in text
        assert "|" in text  # change-point mark inside the sparkline

    def test_empty_history_renders_placeholder(self, tmp_path):
        h = load_history(tmp_path / "none")
        text = format_trends([], h)
        assert "no series has enough recorded runs" in text


class TestMarkdownReport:
    def test_contains_table_and_change_points(self, tmp_path):
        # The trend view is the one report: a table row per series, then
        # the change-point section.
        h = stepped_history(tmp_path)
        lines = format_trends(analyze_history(h), h).splitlines()
        assert lines[2].split() == ["series", "runs", "p50", "p90", "p99", "latest", "trend"]
        rows = [line.split()[0] for line in lines[3:] if line and not line.startswith(" ")]
        assert rows[:3] == ["report/peak_rss_mb", "report/wall_s", "window-ooc/wall_s"]
        assert "change points:" in lines
        cps = lines[lines.index("change points:") + 1:]
        assert len(cps) == 1 and cps[0].startswith("  report/wall_s: first seen at run 7")


class TestHtmlReport:
    def test_self_contained_document(self, tmp_path):
        # Everything needed to answer "when did this get slow, and why"
        # is in the text: history, run span, machines, series, layers.
        h = stepped_history(tmp_path)
        text = format_trends(analyze_history(h), h)
        assert text.splitlines()[0] == (
            f"benchmark trend: 10 run(s) in {h.directory} (runs 1..10), 1 machine(s)"
        )
        assert "(2.4 -> 3.4, +41.7%)" in text
        assert OBSERVE in text
        assert "http" not in text

    def test_empty_history_document(self, tmp_path):
        h = load_history(tmp_path / "none")
        text = format_trends(analyze_history(h), h)
        assert "0 run(s)" in text
        assert "no series has enough recorded runs" in text
