"""``python -m repro.obs tail``: rendering, filters, growth-following."""

import io

from repro.obs.cli import _record_matches, main as obs_main, render_record, tail_trace
from repro.obs.tracer import JsonlSink, TraceRecord


def _write_trace(path, records, label="tail-test"):
    sink = JsonlSink(path, label=label)
    for record in records:
        sink.write(record)
    sink.close()


_RECORDS = [
    TraceRecord(1e-6, "packet.inject", ("flow", "0-5")),
    TraceRecord(2e-6, "router.contention", ("router", 3),
                ph="X", dur=5e-7, args={"wait_s": 5e-7}),
    TraceRecord(3e-6, "packet.deliver", ("flow", "0-5"),
                args={"latency_s": 2e-6}),
]


class TestRender:
    def test_line_contains_time_name_track(self):
        line = render_record(_RECORDS[0])
        assert "1.000us" in line
        assert "packet.inject" in line
        assert "flow:0-5" in line

    def test_duration_and_args_rendered(self):
        line = render_record(_RECORDS[1])
        assert "dur=5.000e-07s" in line
        assert "wait_s=5e-07" in line

    def test_args_sorted(self):
        record = TraceRecord(0.0, "x.y", ("fabric", 0), args={"b": 2, "a": 1})
        line = render_record(record)
        assert line.index("a=1") < line.index("b=2")


class TestFilters:
    def test_name_filter(self):
        assert _record_matches(_RECORDS[0], ["packet.inject"], None)
        assert not _record_matches(_RECORDS[0], ["packet.drop"], None)

    def test_track_filter_kind_and_full(self):
        assert _record_matches(_RECORDS[1], None, ["router"])
        assert _record_matches(_RECORDS[1], None, ["router:3"])
        assert not _record_matches(_RECORDS[1], None, ["router:9"])
        assert not _record_matches(_RECORDS[1], None, ["nic"])


class TestTail:
    def test_renders_all_records_and_skips_header(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _RECORDS)
        out = io.StringIO()
        assert tail_trace(trace, out=out) == 3
        lines = out.getvalue().splitlines()
        assert len(lines) == 3
        assert "header" not in out.getvalue()

    def test_filters_compose(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _RECORDS)
        out = io.StringIO()
        assert tail_trace(trace, names=["packet.deliver"], out=out) == 1
        assert "latency_s" in out.getvalue()

    def test_max_records_stops_early(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _RECORDS)
        out = io.StringIO()
        assert tail_trace(trace, max_records=2, out=out) == 2

    def test_follow_picks_up_growth(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _RECORDS[:1])

        class GrowOnFirstWrite(io.StringIO):
            """Appends record two while record one is being printed."""

            grown = False

            def write(self, text):
                if not self.grown:
                    self.grown = True
                    with open(trace, "a", encoding="utf-8") as fh:
                        fh.write(
                            '{"name":"packet.deliver","ph":"i","track":["flow","0-5"],'
                            '"ts":4e-06}\n'
                        )
                return super().write(text)

        out = GrowOnFirstWrite()
        printed = tail_trace(
            trace, follow=True, interval_s=0.02, max_records=2, idle_timeout_s=5.0,
            out=out,
        )
        assert printed == 2
        assert "packet.deliver" in out.getvalue().splitlines()[1]

    def test_follow_idle_timeout_returns(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _RECORDS[:1])
        out = io.StringIO()
        printed = tail_trace(
            trace, follow=True, interval_s=0.02, idle_timeout_s=0.1, out=out
        )
        assert printed == 1

    def test_cli_entry(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        _write_trace(trace, _RECORDS)
        assert obs_main(["tail", str(trace), "--name", "packet.inject"]) == 0
        captured = capsys.readouterr()
        assert "packet.inject" in captured.out
        assert "router.contention" not in captured.out
