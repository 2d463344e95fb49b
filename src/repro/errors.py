"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at a pipeline boundary while still getting
fine-grained types for programmatic handling inside subsystems.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FormatError(ReproError):
    """A record or file did not conform to its declared format."""


class CigarError(FormatError):
    """A CIGAR string was malformed or inconsistent with its read."""


class BamError(FormatError):
    """A BAM container (chunks, index, header) was invalid."""


class ReferenceError_(ReproError):
    """A reference genome was missing a contig or out-of-range slice."""


class AlignmentError(ReproError):
    """The aligner was misconfigured or given unusable input."""


class PartitioningError(ReproError):
    """A GDPT logical partitioning contract was violated."""


class HdfsError(ReproError):
    """A distributed-storage operation failed (missing file/block)."""


class BlockLostError(HdfsError):
    """Every replica of a block is gone or corrupt — data loss.

    Raised only when no datanode can serve a checksum-clean copy;
    single-replica failures are absorbed by read failover and repaired
    by re-replication.
    """


class MapReduceError(ReproError):
    """The MapReduce engine was misconfigured or a task failed."""


class CommitError(MapReduceError):
    """The exactly-once commit protocol was violated or misused.

    Raised when a journaled commit cannot be replayed, or a promotion
    is attempted for an attempt that was never staged — never for an
    ordinary fenced (refused) commit, which is a counted non-error.
    """


class DriverKilledError(MapReduceError):
    """A chaos ``KillDriver`` event stopped the driver mid-round.

    Raised *after* the triggering commit was journaled, so a resumed
    run recovers every commit up to and including it from the WAL.
    It carries what the dead driver recorded: ``job_result``, the
    interrupted job's partial ``JobResult`` (set by the engine), and
    ``result``, the partial ``GesallPipelineResult`` (set by
    ``GesallPipeline.run``).
    """

    job_result = None
    result = None


class ShuffleError(MapReduceError):
    """The shuffle service was misconfigured or a segment is malformed."""


class ShuffleCorruptionError(ShuffleError):
    """A shuffle segment failed its end-to-end CRC32 verification.

    Raised after every configured refetch served damaged bytes; a
    single bad replica is normally absorbed below this layer by the
    HDFS block-level checksum failover.
    """


class DurableIoError(ReproError):
    """A durable-I/O operation failed past every configured retry.

    Raised by the :mod:`repro.io` layer when an operation cannot be
    completed — a persistent EIO, an exhausted transient-retry budget,
    or a per-op timeout.  Transient errors absorbed by the retry loop
    never surface as this type; they are counted in ``io.retries``.
    """


class StorageFullError(DurableIoError):
    """A write hit ENOSPC and no fallback location absorbed it.

    ENOSPC is never retried in place (a full disk stays full); the
    spill router tries fallback directories and replica shedding first,
    and only raises this when even the degraded mode cannot place the
    minimum required copies.
    """


class IoTimeoutError(DurableIoError):
    """One I/O operation's charged latency exceeded ``op_timeout``.

    The charge is deterministic (injected slow-I/O seconds, not the
    wall clock), so the timeout trips identically under every executor.
    """


class PipelineError(ReproError):
    """A pipeline stage received input violating its preconditions."""


class CheckpointError(PipelineError):
    """A round checkpoint was missing, corrupt, or from another run."""


class SimulationError(ReproError):
    """The cluster simulator was given an inconsistent model."""


class ServerError(ReproError):
    """The multi-tenant job server was misused or hit an internal fault."""


class AdmissionError(ServerError):
    """A job submission was refused by admission control.

    Always raised *synchronously* at submit time — overload produces a
    deterministic typed rejection, never a queued job that hangs.  The
    structured fields name the quota that tripped so clients (and the
    NDJSON protocol) can relay the decision without parsing prose.
    """

    def __init__(self, tenant: str, reason: str, limit, observed,
                 message: str = ""):
        self.tenant = tenant
        #: Machine-readable quota name: ``"queued_jobs"``,
        #: ``"cost_units"``, ``"total_queued"`` or ``"bad_tenant"``.
        self.reason = reason
        self.limit = limit
        self.observed = observed
        super().__init__(
            message
            or f"tenant {tenant!r} rejected by {reason} quota "
               f"(limit {limit}, observed {observed})"
        )


class JobNotFoundError(ServerError):
    """A job id was addressed that the server has never admitted."""


class ServerKilledError(ServerError):
    """A chaos ``KillServer`` event stopped the job server mid-queue.

    Raised *after* the triggering dispatch record was journaled to the
    durable queue, so a restarted server re-admits that job (and every
    other non-terminal one) — the server-level mirror of
    :class:`DriverKilledError`.
    """
