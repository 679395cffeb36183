"""Minimal, strict FASTA reader and writer.

Also the two file-level entry points every front end shares:
:func:`load_reads` (a reads file, FASTQ or FASTA by extension) and
:func:`write_contigs` (the assembly's output, replaced atomically).
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.io.atomic import atomic_write
from repro.io.fastq import parse_fastq
from repro.io.readset import ReadSet
from repro.io.records import Read

__all__ = ["parse_fasta", "write_fasta", "parse_reads", "load_reads", "write_contigs"]


def _open_text(source) -> io.TextIOBase:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="ascii")
    return source


def parse_fasta(source) -> Iterator[Read]:
    """Yield :class:`Read` records from a FASTA path or text stream.

    Multi-line sequences are supported; blank lines are ignored.  A
    sequence line before any header is an error.
    """
    fh = _open_text(source)
    close = isinstance(source, (str, Path))
    try:
        header: str | None = None
        chunks: list[str] = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if header is not None:
                    yield Read.from_string(header, "".join(chunks))
                header = line[1:].split()[0] if len(line) > 1 else ""
                if not header:
                    raise ValueError(f"line {lineno}: empty FASTA header")
                chunks = []
            else:
                if header is None:
                    raise ValueError(f"line {lineno}: sequence data before any header")
                chunks.append(line)
        if header is not None:
            yield Read.from_string(header, "".join(chunks))
    finally:
        if close:
            fh.close()


def write_fasta(reads: Iterable[Read], dest, width: int = 70) -> None:
    """Write reads to a FASTA path or text stream, wrapping at ``width``."""
    if width < 1:
        raise ValueError("width must be positive")
    fh = _open_text(dest) if not isinstance(dest, (str, Path)) else open(dest, "w", encoding="ascii")
    close = isinstance(dest, (str, Path))
    try:
        for read in reads:
            fh.write(f">{read.id}\n")
            seq = read.sequence
            for i in range(0, len(seq), width):
                fh.write(seq[i : i + width] + "\n")
    finally:
        if close:
            fh.close()


def parse_reads(path: str | Path) -> Iterator[Read]:
    """Records of a reads file: FASTQ by ``.fq`` / ``.fastq``, else FASTA."""
    if str(path).endswith((".fq", ".fastq")):
        return parse_fastq(path)
    return parse_fasta(path)


def load_reads(path: str | Path) -> ReadSet:
    """The whole reads file as an in-RAM :class:`ReadSet`."""
    return ReadSet(parse_reads(path))


def write_contigs(path: str | Path, contigs: Iterable[np.ndarray]) -> None:
    """Write contig code arrays as ``contig_<i>`` FASTA records.

    The file is replaced atomically: a writer killed (or raising)
    half-way leaves the previous output, never a truncated FASTA that
    still parses.
    """
    records = (Read(f"contig_{i}", np.asarray(c)) for i, c in enumerate(contigs))
    atomic_write(path, lambda fh: write_fasta(records, fh), mode="w")
