"""Tests for the wrapper adapters and the Table 2 stage catalog."""

import pytest

from repro.cleaning.clean_sam import CleanSam
from repro.pipeline.stages import TABLE2_STAGES, total_pipeline_hours
from repro.wrappers.programs import (
    DataTransformAccounting,
    interleaved_text_to_pairs,
    pairs_to_interleaved_text,
    records_to_sam_text,
    run_wrapped,
    sam_text_to_records,
)


class TestInterleavedText:
    def test_roundtrip(self, pairs):
        subset = pairs[:10]
        text = pairs_to_interleaved_text(subset)
        parsed = interleaved_text_to_pairs(text)
        assert parsed == subset

    def test_malformed_rejected(self):
        from repro.errors import FormatError
        with pytest.raises(FormatError):
            interleaved_text_to_pairs("@only_one_line\n")


class TestSamText:
    def test_roundtrip(self, sam_header, aligned):
        text = records_to_sam_text(sam_header, aligned[:10])
        header, records = sam_text_to_records(text)
        assert header == sam_header
        assert [r.to_line() for r in records] == [
            r.to_line() for r in aligned[:10]]


class TestTransformAccounting:
    def test_bytes_counted_on_both_sides(self, sam_header, aligned):
        accounting = DataTransformAccounting()
        run_wrapped(CleanSam(), sam_header, aligned[:50], accounting)
        assert accounting.invocations == 1
        assert accounting.bytes_to_program > 0
        assert accounting.bytes_from_program > 0
        assert accounting.total_bytes == (
            accounting.bytes_to_program + accounting.bytes_from_program
        )

    def test_optional_accounting(self, sam_header, aligned):
        header, out = run_wrapped(CleanSam(), sam_header, aligned[:10], None)
        assert out


class TestStageCatalog:
    def test_ten_stages(self):
        assert len(TABLE2_STAGES) == 10
        assert [s.step for s in TABLE2_STAGES] == [
            "1", "2", "3", "4", "5", "6", "7", "8", "v1", "v2"
        ]

    def test_total_about_two_weeks(self):
        total_days = total_pipeline_hours() / 24.0
        assert 10 <= total_days <= 16
