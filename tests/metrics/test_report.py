"""Unit tests for table rendering."""

from repro.analysis.report import describe_result, figure_table, format_table
from repro.metrics.collector import MetricsCollector
from repro.node.task import Task, TaskOutcome


def result(protocol="realtor", admitted=5, generated=10):
    mc = MetricsCollector()
    for _ in range(generated):
        mc.task_generated()
    for _ in range(admitted):
        t = Task(size=1.0, arrival_time=0.0, origin=0)
        t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
        mc.task_admitted(t)
    for _ in range(generated - admitted):
        mc.task_rejected(Task(size=1.0, arrival_time=0.0, origin=0))
    mc.on_cost("HELP", 40.0)
    return mc.result({"protocol": protocol}, horizon=100.0)


class TestFormatTable:
    def test_alignment_and_separator(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.123456]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        # columns aligned: header and rows have the same width
        assert len(lines[0]) == len(lines[2])

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456789]], float_fmt="{:.2f}")
        assert "1.23" in out

    def test_empty_rows(self):
        out = format_table(["only", "headers"], [])
        assert "only" in out


class TestFigureTable:
    def test_rows_per_rate_columns_per_protocol(self):
        results = {
            "realtor": {1.0: result("realtor"), 2.0: result("realtor")},
            "push-1": {1.0: result("push-1")},
        }
        out = figure_table(results, lambda r: r.admission_probability)
        lines = out.splitlines()
        assert "realtor" in lines[0] and "push-1" in lines[0]
        assert len(lines) == 4  # header + sep + 2 rates
        assert "-" in lines[3]  # missing push-1 point at rate 2


class TestDescribeResult:
    def test_contains_key_metrics(self):
        text = describe_result(result())
        assert "admission probability : 0.5" in text
        assert "HELP" in text
        assert "realtor" in text

    def test_label_override(self):
        assert describe_result(result(), label="custom").startswith("custom")
