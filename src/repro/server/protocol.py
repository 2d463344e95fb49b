"""Job payload descriptors + the NDJSON wire vocabulary.

A submitted job travels (and is journaled) as a small JSON-safe
*payload* dict that the server can re-construct into runnable work at
dispatch time — after a crash the restarted process rebuilds the job
from the journal alone, so payloads must be self-contained:

* ``{"type": "wordcount", "lines": [...], "partitions": P,
  "reducers": R}`` — the builtin single-round MR job used by the CLI,
  CI smoke and benches.  Mapper/reducer are module-level functions
  here, so the payload itself carries only data.
* ``{"type": "pipeline", "data": DIR, "partitions": P,
  "reducers": R}`` — the five-round Gesall pipeline over a simulated
  sample directory, checkpointed under the server's state directory:
  a job re-admitted after a server kill resumes through the PR-5
  commit/resume path instead of recomputing finished rounds.

Wire framing is one JSON object per line in both directions; errors
cross as ``{"error": {"type", "message", ...}}`` and are re-raised as
their typed exceptions client-side (:func:`raise_wire_error`).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List

from repro.errors import AdmissionError, JobNotFoundError, ServerError

#: Payload types the server accepts.
PAYLOAD_TYPES = ("wordcount", "pipeline")


# -- builtin wordcount job ---------------------------------------------------
def wordcount_map(records: List[str], ctx: Any) -> None:
    for line in records:
        for word in line.split():
            ctx.emit(word, 1)


def wordcount_reduce(key: str, values: List[int], ctx: Any) -> None:
    ctx.emit(key, sum(values))


def wordcount_payload(lines: List[str], partitions: int = 2,
                      reducers: int = 2) -> Dict[str, Any]:
    return {
        "type": "wordcount",
        "lines": list(lines),
        "partitions": partitions,
        "reducers": reducers,
    }


def is_count(value: Any) -> bool:
    """An ``int`` (never a ``bool``) of at least 1."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _count(payload: Dict[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    if not is_count(value):
        raise ServerError(f"{payload['type']} payload {key!r} must be an "
                          f"integer >= 1, got {value!r}")
    return value


def build_runnable(job_id: str, payload: Dict[str, Any],
                   state_dir: str) -> Callable[[], Any]:
    """Turn a journaled payload into a zero-argument job body.

    Validation happens here, at admission time, so a malformed payload
    is a typed submit-time rejection instead of a failed job.  The
    returned callable produces the job's picklable result (sorted
    ``(key, value)`` pairs for MR jobs, VCF lines for pipelines).
    """
    if not isinstance(payload, dict):
        raise ServerError(f"job payload must be an object, "
                          f"got {type(payload).__name__}")
    kind = payload.get("type")
    if kind == "wordcount":
        lines = payload.get("lines")
        if (not isinstance(lines, list) or not lines
                or not all(isinstance(line, str) for line in lines)):
            raise ServerError("wordcount payload needs a non-empty "
                              "'lines' list of strings")
        partitions = _count(payload, "partitions", 2)
        reducers = _count(payload, "reducers", 2)

        def run_wordcount() -> Any:
            from repro.api import JobSpec, make_block_splits, run_job
            from repro.mapreduce.policy import ExecutionPolicy

            chunk = max(1, (len(lines) + partitions - 1) // partitions)
            parts = [lines[i:i + chunk]
                     for i in range(0, len(lines), chunk)]
            spec = JobSpec(
                name=job_id,
                mapper=wordcount_map,
                reducer=wordcount_reduce,
                num_reducers=reducers,
                policy=ExecutionPolicy.serial(),
            )
            result = run_job(spec, make_block_splits(parts, prefix=job_id))
            return sorted(result.all_outputs())

        return run_wordcount
    if kind == "pipeline":
        data_dir = payload.get("data")
        if not isinstance(data_dir, str) or not os.path.isdir(data_dir):
            raise ServerError(
                f"pipeline payload needs a 'data' sample directory, "
                f"got {data_dir!r}"
            )
        partitions = _count(payload, "partitions", 4)
        reducers = _count(payload, "reducers", 4)

        def run_pipeline_job() -> Any:
            from repro.api import PipelineSpec, run_pipeline
            from repro.formats.fastq import read_sample

            reference, pairs = read_sample(data_dir)
            spec = PipelineSpec(
                reference=reference,
                num_fastq_partitions=partitions,
                num_reducers=reducers,
                checkpoint_dir=os.path.join(state_dir, f"ckpt-{job_id}"),
            )
            # resume=True is a no-op on a fresh checkpoint dir and
            # picks up finished rounds when this job was re-admitted
            # after a server kill — the PR-5 commit/resume path.
            result = run_pipeline(spec, pairs, resume=True)
            return [v.to_line() for v in result.variants]

        return run_pipeline_job
    raise ServerError(
        f"unknown job payload type {kind!r}; "
        f"expected one of {', '.join(PAYLOAD_TYPES)}"
    )


# -- wire errors -------------------------------------------------------------
def error_to_wire(exc: Exception) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, AdmissionError):
        entry.update(
            tenant=exc.tenant, reason=exc.reason,
            limit=exc.limit, observed=exc.observed,
        )
    return entry


def raise_wire_error(entry: Dict[str, Any]) -> None:
    """Re-raise a wire error dict as its typed exception."""
    kind = entry.get("type", "ServerError")
    message = entry.get("message", "server error")
    if kind == "AdmissionError":
        raise AdmissionError(
            entry.get("tenant", "?"), entry.get("reason", "?"),
            entry.get("limit"), entry.get("observed"), message,
        )
    if kind == "JobNotFoundError":
        raise JobNotFoundError(message)
    raise ServerError(message)
