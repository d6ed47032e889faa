"""The stored layouts in `nsbox.records`, called directly: the batch-CSV
histogram reader's field rules, the CSV writers against csv.writer, and
each header against the README."""

import csv
import io
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsbox import records
from nsbox.records import BOUNDS_CSV_HEADER, read_batch_histogram, write_bounds_csv
from test_readme import README


def histogram(text: str) -> dict:
    return read_batch_histogram(io.StringIO(text))


class TestReadBatchHistogram:
    def test_counts_each_strategy_and_sum(self):
        text = "strategy,B,Bprime\nalways_a,0.5,0.25\nalways_a,0.25,0.5\nalways_aprime,1,-1\n"
        assert histogram(text) == {("always_a", 0.75): 2, ("always_aprime", 0.0): 1}

    def test_repeated_name_reads_its_last_column(self):
        assert histogram("strategy,B,Bprime,B\nalways_a,9,0.5,0.25\n") == {("always_a", 0.75): 1}

    def test_blank_lines_are_skipped(self):
        text = "strategy,B,Bprime\n\nalways_a,0.5,0\n\n\nalways_a,0.5,0\n"
        assert histogram(text) == {("always_a", 0.5): 2}

    def test_short_row_reads_none_and_names_its_line(self):
        text = "B,Bprime,strategy\n0.5,0.5,always_a\n\n0.5,0.5\n"
        with pytest.raises(ValueError, match="^line 4 has no field 'strategy'$"):
            histogram(text)
        # a short row that keeps its strategy reads None for B: float(None) fails
        with pytest.raises(TypeError):
            histogram("strategy,Bprime,B\nalways_a,0.5\n")

    def test_bad_b_fails_at_its_first_row_before_a_missing_bprime_column(self):
        with pytest.raises(ValueError, match="^could not convert string to float: 'abc'$"):
            histogram("strategy,B\nalways_a,abc\n")
        with pytest.raises(ValueError, match="^missing column 'Bprime'$"):
            histogram("strategy,B\nalways_a,0.5\n")

    def test_missing_column_and_bad_csv_are_value_errors(self):
        with pytest.raises(ValueError, match="^missing column 'strategy'$"):
            histogram("B,Bprime\n0.5,0.5\n")
        with pytest.raises(ValueError, match="field larger than"):
            histogram("strategy,B,Bprime\nalways_a," + "9" * 140_000 + ",0\n")

    def test_header_only_or_empty_reads_no_counts(self):
        assert histogram("strategy,B,Bprime\n") == {}
        assert histogram("") == {}

    def test_blank_first_line_is_an_empty_header(self):
        with pytest.raises(ValueError, match="^missing column 'strategy'$"):
            histogram("\nstrategy,B,Bprime\nalways_a,0.5,0\n")


def csv_writer_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@given(st.lists(st.floats() | st.booleans(), min_size=11, max_size=11))
def test_bounds_row_is_what_csv_writer_writes(values):
    fields = BOUNDS_CSV_HEADER.split(",")
    stream = io.StringIO()
    write_bounds_csv(stream, {**dict(zip(fields, values)), "schema_version": "1"})
    assert stream.getvalue() == csv_writer_text([fields, values])


def test_histogram_quotes_a_strategy_as_csv_writer_does():
    counts = {('odd,"name', 0.5): 2, ("always_a", -0.0): 1}
    stream = io.StringIO()
    records.write_histogram_csv(stream, counts)
    assert stream.getvalue() == csv_writer_text(
        [["strategy", "value", "count"], ["always_a", "-0", 1], ['odd,"name', "0.5", 2]]
    )


def test_every_header_is_the_readme_header():
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1].split("\n## ", 1)[0]
    readme_headers = set(re.findall(r"`([^`\s]+,[^`\s]+)`", section))
    headers = [value for name, value in vars(records).items() if name.endswith("_CSV_HEADER")]
    assert {*headers, *records.GRID_CSV_ROWS} == readme_headers
