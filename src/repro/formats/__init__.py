"""Standard genomic data formats: FASTQ, SAM, BAM and VCF.

Gesall keeps data in the community's standard formats (a hard NYGC
requirement, section 2.2), so this package implements them rather than
inventing new ones.
"""

from repro.formats.cigar import (
    Cigar,
    reference_end,
    unclipped_end,
    unclipped_five_prime,
    unclipped_start,
)
from repro.formats.fastq import (
    FastqRecord,
    interleave,
    read_fastq,
    read_sample,
    write_fastq,
)
from repro.formats.flags import SamFlags
from repro.formats.sam import (
    SamHeader,
    SamRecord,
    decode_quals,
    encode_quals,
)
from repro.formats.bam import (
    BamLinearIndex,
    bam_bytes,
    iter_frames,
    read_bam,
)
from repro.formats.vcf import (
    VariantRecord,
    read_vcf,
    sort_variants,
    write_vcf,
)

__all__ = [
    "Cigar",
    "reference_end",
    "unclipped_end",
    "unclipped_five_prime",
    "unclipped_start",
    "FastqRecord",
    "interleave",
    "read_fastq",
    "read_sample",
    "write_fastq",
    "SamFlags",
    "SamHeader",
    "SamRecord",
    "decode_quals",
    "encode_quals",
    "BamLinearIndex",
    "bam_bytes",
    "iter_frames",
    "read_bam",
    "VariantRecord",
    "read_vcf",
    "sort_variants",
    "write_vcf",
]
