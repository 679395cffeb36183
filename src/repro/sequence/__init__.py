"""DNA sequence primitives: 2-bit encoding, k-mers, and quality handling.

Everything in this package operates on numpy ``uint8`` *code arrays*
(A=0, C=1, G=2, T=3, N=4) rather than Python strings so that the
base-level work of the assembler — reverse complements, k-mer
extraction, identity checks — is vectorised.
"""

from repro.sequence.dna import (
    A,
    C,
    G,
    T,
    N,
    CODE_TO_BASE,
    complement,
    decode,
    encode,
    gc_content,
    hamming_identity,
    reverse_complement,
)
from repro.sequence.kmers import (
    canonical_kmer_codes,
    kmer_codes,
    max_k_for_dtype,
    pack_kmer,
    revcomp_kmer_code,
    unpack_kmer,
)
from repro.sequence.quality import (
    PHRED_OFFSET,
    decode_phred,
    encode_phred,
    sliding_window_trim_index,
    trim_read,
)

__all__ = [
    "A",
    "C",
    "G",
    "T",
    "N",
    "CODE_TO_BASE",
    "encode",
    "decode",
    "complement",
    "reverse_complement",
    "gc_content",
    "hamming_identity",
    "kmer_codes",
    "canonical_kmer_codes",
    "pack_kmer",
    "unpack_kmer",
    "revcomp_kmer_code",
    "max_k_for_dtype",
    "PHRED_OFFSET",
    "encode_phred",
    "decode_phred",
    "sliding_window_trim_index",
    "trim_read",
]
