"""In-process MapReduce runtime with Hadoop shuffle semantics."""

from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.counters import Counters
from repro.mapreduce import counters
from repro.mapreduce.commit import OutputCommitter, RoundJournal
from repro.mapreduce.engine import JobResult, MapReduceEngine
from repro.mapreduce.executors import (
    JobContext,
    PooledProcessExecutor,
    SerialExecutor,
    TaskExecutor,
    WorkerCrash,
    build_executor,
    fork_available,
)
from repro.mapreduce.history import JobHistory, TaskAttempt
from repro.mapreduce.policy import (
    EXECUTOR_KINDS,
    ExecutionPolicy,
    InjectedTaskFault,
)
from repro.mapreduce.job import (
    InputSplit,
    JobSpec,
    TaskContext,
    default_partitioner,
    make_splits,
)

__all__ = [
    "RecordBlock",
    "Counters",
    "counters",
    "OutputCommitter",
    "RoundJournal",
    "JobResult",
    "MapReduceEngine",
    "EXECUTOR_KINDS",
    "ExecutionPolicy",
    "InjectedTaskFault",
    "TaskExecutor",
    "SerialExecutor",
    "PooledProcessExecutor",
    "JobContext",
    "WorkerCrash",
    "build_executor",
    "fork_available",
    "JobHistory",
    "TaskAttempt",
    "InputSplit",
    "JobSpec",
    "TaskContext",
    "default_partitioner",
    "make_splits",
]
