"""Edge cases of the Hadoop Streaming emulation.

The happy path lives in test_mapreduce.py; these pin down boundary
behaviour the wrapper layer relies on: empty stdin and the byte
accounting of multi-program pipelines.
"""

from repro.mapreduce.streaming import ExternalProgram, StreamingPipeline


class Upper(ExternalProgram):
    name = "upper"

    def process(self, stdin: bytes) -> bytes:
        return stdin.upper()


class Doubler(ExternalProgram):
    name = "doubler"

    def process(self, stdin: bytes) -> bytes:
        return stdin + stdin


class Sink(ExternalProgram):
    name = "sink"

    def process(self, stdin: bytes) -> bytes:
        return b""


class TestEmptyStdin:
    def test_empty_stdin_flows_through_every_program(self):
        pipeline = StreamingPipeline([Upper(), Doubler()])
        assert pipeline.run(b"") == b""
        # Every stage still ran (a real fork would too) and its pipe
        # accounting records the zero transfers.
        assert pipeline.stats.programs == ["upper", "doubler"]
        assert pipeline.stats.bytes_in == [0, 0]
        assert pipeline.stats.bytes_out == [0, 0]

    def test_program_may_produce_output_from_empty_stdin(self):
        class Banner(ExternalProgram):
            name = "banner"

            def process(self, stdin: bytes) -> bytes:
                return b"header\n" + stdin

        pipeline = StreamingPipeline([Banner()])
        assert pipeline.run(b"") == b"header\n"
        assert pipeline.stats.bytes_in == [0]
        assert pipeline.stats.bytes_out == [7]


class TestMultiProgramAccounting:
    def test_total_transferred_sums_every_pipe_side(self):
        pipeline = StreamingPipeline([Upper(), Doubler(), Sink()])
        out = pipeline.run(b"acgt")
        assert out == b""
        stats = pipeline.stats
        # upper: 4 in / 4 out; doubler: 4 in / 8 out; sink: 8 in / 0 out.
        assert stats.bytes_in == [4, 4, 8]
        assert stats.bytes_out == [4, 8, 0]
        assert sum(stats.bytes_in) + sum(stats.bytes_out) == 28

    def test_stats_replaced_per_run_not_accumulated(self):
        pipeline = StreamingPipeline([Doubler()])
        pipeline.run(b"xy")
        first = pipeline.stats
        pipeline.run(b"abcd")
        assert pipeline.stats is not first
        assert pipeline.stats.bytes_in == [4]
        assert pipeline.stats.bytes_out == [8]
        assert first.bytes_in == [2]

    def test_repr_names_every_stage(self):
        pipeline = StreamingPipeline([Upper(), Doubler()])
        pipeline.run(b"aa")
        text = repr(pipeline.stats)
        assert "upper(2B->2B)" in text
        assert "doubler(2B->4B)" in text
