"""Sequence input/output: FASTA/FASTQ parsing and the ReadSet container."""

from repro.io.fasta import (
    load_reads,
    parse_fasta,
    parse_reads,
    write_contigs,
    write_fasta,
)
from repro.io.fastq import parse_fastq, write_fastq
from repro.io.records import Read
from repro.io.readset import ReadSet

__all__ = [
    "Read",
    "ReadSet",
    "parse_fasta",
    "write_fasta",
    "parse_fastq",
    "write_fastq",
    "parse_reads",
    "load_reads",
    "write_contigs",
]
