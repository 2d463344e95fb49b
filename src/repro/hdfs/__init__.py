"""In-memory HDFS with Gesall's storage substrate on top."""

from repro.errors import BlockLostError
from repro.hdfs.bam_storage import upload_bam
from repro.hdfs.blocks import (
    DEFAULT_BLOCK_SIZE,
    Datanode,
    HdfsBlock,
    HdfsFile,
    split_into_blocks,
)
from repro.hdfs.filesystem import Hdfs
from repro.hdfs.placement import BlockPlacementPolicy, LogicalBlockPlacementPolicy

__all__ = [
    "BlockLostError",
    "upload_bam",
    "DEFAULT_BLOCK_SIZE",
    "Datanode",
    "HdfsBlock",
    "HdfsFile",
    "split_into_blocks",
    "Hdfs",
    "BlockPlacementPolicy",
    "LogicalBlockPlacementPolicy",
]
