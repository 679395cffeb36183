"""Unit tests for FASTA/FASTQ parsing and writing."""

import io

import numpy as np
import pytest

from repro.io.fasta import parse_fasta, write_fasta
from repro.io.fastq import parse_fastq, write_fastq
from repro.io.records import Read


class TestFasta:
    def test_parse_simple(self):
        text = ">r1 desc\nACGT\n>r2\nTT\nGG\n"
        reads = list(parse_fasta(io.StringIO(text)))
        assert [r.id for r in reads] == ["r1", "r2"]
        assert reads[1].sequence == "TTGG"

    def test_parse_blank_lines(self):
        reads = list(parse_fasta(io.StringIO(">a\n\nAC\n\n>b\nGT\n")))
        assert [r.sequence for r in reads] == ["AC", "GT"]

    def test_parse_empty_header_raises(self):
        with pytest.raises(ValueError, match="empty FASTA header"):
            list(parse_fasta(io.StringIO(">\nAC\n")))

    def test_parse_leading_sequence_raises(self):
        with pytest.raises(ValueError, match="before any header"):
            list(parse_fasta(io.StringIO("ACGT\n")))

    def test_parse_empty_stream(self):
        assert list(parse_fasta(io.StringIO(""))) == []

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "x.fa"
        reads = [Read.from_string("a", "ACGT" * 30), Read.from_string("b", "T")]
        write_fasta(reads, path, width=50)
        back = list(parse_fasta(path))
        assert [(r.id, r.sequence) for r in back] == [(r.id, r.sequence) for r in reads]

    def test_write_wraps(self):
        buf = io.StringIO()
        write_fasta([Read.from_string("a", "ACGTACGT")], buf, width=4)
        assert buf.getvalue() == ">a\nACGT\nACGT\n"

    def test_write_bad_width(self):
        with pytest.raises(ValueError):
            write_fasta([], io.StringIO(), width=0)


class TestFastq:
    def test_parse_simple(self):
        text = "@r1\nACGT\n+\nIIII\n"
        reads = list(parse_fastq(io.StringIO(text)))
        assert reads[0].id == "r1"
        assert reads[0].quals.tolist() == [40, 40, 40, 40]

    def test_parse_bad_header(self):
        with pytest.raises(ValueError, match="malformed FASTQ header"):
            list(parse_fastq(io.StringIO("r1\nAC\n+\nII\n")))

    def test_parse_missing_plus(self):
        with pytest.raises(ValueError, match="separator"):
            list(parse_fastq(io.StringIO("@r1\nAC\nII\nII\n")))

    def test_parse_length_mismatch(self):
        with pytest.raises(ValueError, match="quality length"):
            list(parse_fastq(io.StringIO("@r1\nACGT\n+\nII\n")))

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "x.fq"
        reads = [Read.from_string("a", "ACGT", quals=np.array([2, 11, 30, 40]))]
        write_fastq(reads, path)
        back = list(parse_fastq(path))
        assert back[0].sequence == "ACGT"
        assert back[0].quals.tolist() == [2, 11, 30, 40]

    def test_write_requires_quals(self):
        with pytest.raises(ValueError, match="no quality scores"):
            write_fastq([Read.from_string("a", "ACGT")], io.StringIO())

    def test_parse_empty(self):
        assert list(parse_fastq(io.StringIO(""))) == []
