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
    split_into_partitions,
    write_fastq,
)
from repro.formats.flags import SamFlags
from repro.formats.sam import (
    SamHeader,
    SamRecord,
    decode_quals,
    encode_quals,
    read_sam,
    write_sam,
)
from repro.formats.bam import (
    BamChunkReader,
    BamLinearIndex,
    bam_bytes,
    frame_boundaries,
    iter_frames,
    read_bam,
    read_header,
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
    "split_into_partitions",
    "write_fastq",
    "SamFlags",
    "SamHeader",
    "SamRecord",
    "decode_quals",
    "encode_quals",
    "read_sam",
    "write_sam",
    "BamChunkReader",
    "BamLinearIndex",
    "bam_bytes",
    "frame_boundaries",
    "iter_frames",
    "read_bam",
    "read_header",
    "VariantRecord",
    "read_vcf",
    "sort_variants",
    "write_vcf",
]
