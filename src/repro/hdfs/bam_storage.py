"""BAM files in HDFS (paper section 3.1, feature 2).

Every round hands its output to the next as logical partitions: whole
BAM files that the :class:`~repro.hdfs.placement.LogicalBlockPlacementPolicy`
places on one node, each read whole by one map task.  (Feature 1, a
``RecordReader`` over the chunks starting in one physical block, had
no caller once every hand-off was a logical partition, and is gone.)
"""

from __future__ import annotations

from typing import List, Optional

from repro.formats.bam import bam_bytes
from repro.formats.sam import SamHeader, SamRecord
from repro.hdfs.filesystem import Hdfs


def upload_bam(
    hdfs: Hdfs,
    path: str,
    header: SamHeader,
    records: List[SamRecord],
    logical_partition: bool = False,
    chunk_bytes: int = 64 * 1024,
    block_size: Optional[int] = None,
) -> None:
    """Serialize and upload a BAM file to HDFS."""
    data = bam_bytes(header, records, chunk_bytes)
    hdfs.put(path, data, logical_partition=logical_partition, block_size=block_size)
