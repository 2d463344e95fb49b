"""Shuffle codec study: what compression buys the shuffle byte plane.

The paper's cleaning rounds move (nearly) the whole BAM through the
shuffle, so the bytes a codec shaves off the segment plane are bytes
that never cross the simulated network.  This benchmark runs the full
pipeline once per codec over the same reads and reads the shuffle
counters back out of the recorder:

* ``shuffle.raw_bytes`` — pre-compression payload (codec-invariant),
* ``shuffle.bytes_shuffled`` — post-compression segment bytes that
  actually moved,

asserting (a) the round outputs are byte-identical across codecs —
compression must be invisible above the byte plane — and (b) zlib-1
cuts shuffled bytes by >= 2x on SAM-like text, the cheap win that
mirrors enabling ``mapreduce.map.output.compress`` in real Hadoop.
"""

from __future__ import annotations

import time

from benchlib import report, report_json

from repro.align.index import ReferenceIndex
from repro.api import PipelineSpec
from repro.genome import (
    ReadSimulationConfig,
    ReferenceSimulationConfig,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.recorder import ObsConfig
from repro.pipeline.parallel import GesallPipeline
from repro.shuffle.codec import CODEC_NAMES
from repro.shuffle.config import ShuffleConfig

PARTITIONS = 8


def _dataset():
    reference = simulate_reference(
        ReferenceSimulationConfig(
            contig_lengths={"chr1": 9000, "chr2": 6000}, seed=411
        )
    )
    donor = simulate_donor(reference)
    pairs, _ = simulate_reads(
        donor, ReadSimulationConfig(coverage=10.0, seed=412)
    )
    return reference, pairs


def _run_with_codec(reference, index, pairs, codec):
    pipeline = GesallPipeline(PipelineSpec(
        reference,
        index=index,
        num_fastq_partitions=PARTITIONS,
        policy=ExecutionPolicy.serial(),
        obs=ObsConfig(enabled=True),
        shuffle=ShuffleConfig(codec=codec),
    ))
    start = time.perf_counter()
    result = pipeline.run(list(pairs))
    elapsed = time.perf_counter() - start
    counters = result.recorder.metrics.as_dict()["counters"]
    return {
        "wall_seconds": elapsed,
        "segments": counters.get("shuffle.segments", 0),
        "raw_bytes": counters.get("shuffle.raw_bytes", 0),
        "shuffled_bytes": counters.get("shuffle.bytes_shuffled", 0),
        "variants": tuple(v.to_line() for v in result.variants),
    }


def test_shuffle_codec_tradeoff():
    reference, pairs = _dataset()
    index = ReferenceIndex(reference)
    runs = {
        codec: _run_with_codec(reference, index, pairs, codec)
        for codec in CODEC_NAMES
    }

    lines = [
        f"Full pipeline, {len(pairs)} read pairs, {PARTITIONS} partitions:",
        f"  {'codec':<8s}{'shuffled':>12s}{'raw':>12s}"
        f"{'ratio':>8s}{'wall':>9s}",
    ]
    for codec in CODEC_NAMES:
        run = runs[codec]
        ratio = run["raw_bytes"] / max(1, run["shuffled_bytes"])
        lines.append(
            f"  {codec:<8s}{run['shuffled_bytes']:>12d}"
            f"{run['raw_bytes']:>12d}{ratio:>7.2f}x"
            f"{run['wall_seconds']:>8.3f}s"
        )
    report("shuffle_codecs", "\n".join(lines))
    report_json(
        "shuffle_codecs",
        wall_seconds=runs["raw"]["wall_seconds"],
        params={"pairs": len(pairs), "partitions": PARTITIONS},
        counters={
            f"{codec}.{field}": runs[codec][field]
            for codec in CODEC_NAMES
            for field in ("shuffled_bytes", "raw_bytes", "segments",
                          "wall_seconds")
        },
    )

    # Compression is invisible above the byte plane.
    for codec in CODEC_NAMES:
        assert runs[codec]["variants"] == runs["raw"]["variants"]
        assert runs[codec]["segments"] == runs["raw"]["segments"]
        assert runs[codec]["raw_bytes"] == runs["raw"]["raw_bytes"]

    # raw frames carry only the header overhead...
    assert runs["raw"]["shuffled_bytes"] > runs["raw"]["raw_bytes"]
    # ...while even the cheapest zlib level halves the shuffled bytes,
    # and the heavier level never does worse than it.
    assert runs["raw"]["shuffled_bytes"] >= 2 * runs["zlib-1"]["shuffled_bytes"]
    assert runs["zlib-6"]["shuffled_bytes"] <= runs["zlib-1"]["shuffled_bytes"]
