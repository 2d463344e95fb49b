"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper, but direct probes of its design decisions
(the slowstart ablation is a simulator figure: ``repro-genomics
perf-study ablation_slowstart``):

* bloom-filter geometry: how MarkDup_opt's shuffle volume degrades
  toward MarkDup_reg as the filter saturates (false positives only add
  shuffling, never errors);
* BAM chunk size: compression ratio vs chunk-seek granularity;
* overlap size: replication cost of the safe fine-grained Haplotype
  Caller partitioning.
"""

import random

from benchlib import bench_seconds, report, report_json

from repro.formats import flags as F
from repro.formats.bam import bam_bytes
from repro.formats.cigar import Cigar
from repro.formats.sam import SamHeader, SamRecord, encode_quals
from repro.gdpt.bloom import BloomFilter
from repro.gdpt.partitioner import (
    MarkDupKeying,
    OverlappingRangePartitioner,
    build_partial_position_bloom,
)


def _pair(qname, pos1, pos2, mapped2=True):
    bits1 = F.PAIRED | F.FIRST_IN_PAIR
    bits2 = F.PAIRED | F.SECOND_IN_PAIR | F.REVERSE
    if not mapped2:
        bits1 |= F.MATE_UNMAPPED
        bits2 = F.PAIRED | F.SECOND_IN_PAIR | F.UNMAPPED
    def rec(bits, pos, mapped=True):
        return SamRecord(
            qname, F.SamFlags(bits), "chr1", pos, 60 if mapped else 0,
            Cigar.parse("50M" if mapped else "*"), seq="A" * 50,
            qual=encode_quals([30] * 50),
        )
    return rec(bits1, pos1), rec(bits2, pos2, mapped2)


def bloom_ablation():
    """Shuffled-record ratio vs bloom size for MarkDup keying."""
    rng = random.Random(0)
    pairs = [
        _pair(f"q{i}", rng.randrange(1, 500_000), rng.randrange(1, 500_000))
        for i in range(4000)
    ]
    # 2% partial matchings.
    pairs += [
        _pair(f"p{i}", rng.randrange(1, 500_000), 0, mapped2=False)
        for i in range(80)
    ]
    input_records = 2 * len(pairs)
    results = {}
    for num_bits in (1 << 6, 1 << 8, 1 << 10, 1 << 14, 1 << 18):
        bloom = BloomFilter(num_bits=num_bits)
        for end1, end2 in pairs:
            if end1.flags.is_mate_unmapped:
                bloom.add((end1.rname, end1.unclipped_five_prime))
        keying = MarkDupKeying("opt", bloom)
        keying.reset()
        shuffled = 0
        for end1, end2 in pairs:
            for key, value in keying.keys_for_pair(end1, end2):
                # pair/partial values carry 2 records, shadows carry 1.
                shuffled += 2 if value[0] != "shadow" else 1
        results[num_bits] = (shuffled / input_records, bloom.estimated_fill())
    # reg baseline:
    keying = MarkDupKeying("reg")
    keying.reset()
    reg_shuffled = 0
    for end1, end2 in pairs:
        for key, value in keying.keys_for_pair(end1, end2):
            reg_shuffled += 2 if value[0] != "shadow" else 1
    return results, reg_shuffled / input_records


def test_ablation_bloom_geometry(benchmark):
    results, reg_ratio = benchmark(bloom_ablation)
    lines = [f"{'bloom bits':>12s}{'fill':>8s}{'shuffle ratio':>15s}"]
    for num_bits, (ratio, fill) in sorted(results.items()):
        lines.append(f"{num_bits:>12d}{fill:>8.3f}{ratio:>15.3f}")
    lines.append(f"{'reg baseline':>12s}{'':>8s}{reg_ratio:>15.3f}")
    lines.append("paper anchors: opt 1.03x vs reg 1.92x the input records")
    report("ablation_bloom_geometry", "\n".join(lines))
    report_json(
        "ablation_bloom_geometry",
        wall_seconds=bench_seconds(benchmark),
        params={"pairs": 4080},
        counters={
            **{f"ratio.bits_{bits}": round(ratio, 4)
               for bits, (ratio, _) in sorted(results.items())},
            "ratio.reg_baseline": round(reg_ratio, 4),
        },
    )

    ratios = [ratio for _, (ratio, _) in sorted(results.items())]
    # Bigger blooms => fewer false positives => less shuffling.
    assert ratios == sorted(ratios, reverse=True)
    # A generous bloom approaches the paper's 1.03x; a saturated one
    # approaches (but never exceeds) the reg ratio.
    assert ratios[-1] < 1.10
    assert ratios[0] <= reg_ratio + 1e-9
    assert reg_ratio > 1.5


def chunk_size_ablation():
    rng = random.Random(1)
    header = SamHeader(sequences=[("chr1", 100000)])
    records = [
        SamRecord(
            f"r{i:05d}", F.SamFlags(0), "chr1", rng.randrange(1, 90000), 60,
            Cigar.parse("100M"),
            seq="".join(rng.choice("ACGT") for _ in range(100)),
            qual=encode_quals([rng.randrange(20, 41) for _ in range(100)]),
        )
        for i in range(1500)
    ]
    raw = sum(len(r.to_line()) + 1 for r in records)
    rows = []
    for chunk_bytes in (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 20):
        data = bam_bytes(header, records, chunk_bytes)
        rows.append((chunk_bytes, len(data) / raw))
    return rows


def test_ablation_bam_chunk_size(benchmark):
    rows = benchmark(chunk_size_ablation)
    lines = [f"{'chunk bytes':>12s}{'compressed/raw':>16s}"]
    for chunk_bytes, ratio in rows:
        lines.append(f"{chunk_bytes:>12d}{ratio:>16.3f}")
    lines.append("past 4 KiB level-1 deflate gains nothing; larger chunks "
                 "coarsen seek granularity")
    report("ablation_bam_chunk_size", "\n".join(lines))
    report_json(
        "ablation_bam_chunk_size",
        wall_seconds=bench_seconds(benchmark),
        params={"records": 1500},
        counters={f"compressed_ratio.chunk_{chunk}": round(ratio, 4)
                  for chunk, ratio in rows},
    )
    ratios = [ratio for _, ratio in rows]
    # BAM frames deflate at level 1, which gains nothing past 4 KiB
    # chunks; every chunk of 4 KiB or more still beats 1 KiB.
    assert all(ratio < ratios[0] for ratio in ratios[1:])
    assert max(ratios) < 0.6  # real compression achieved


def overlap_ablation():
    header = SamHeader(sequences=[("chr1", 200_000)])
    rng = random.Random(2)
    records = [
        SamRecord(
            f"r{i}", F.SamFlags(0), "chr1", rng.randrange(1, 199_800), 60,
            Cigar.parse("100M"), seq="A" * 100, qual=encode_quals([30] * 100),
        )
        for i in range(3000)
    ]
    rows = []
    for overlap in (0, 100, 250, 500, 1000):
        ranger = OverlappingRangePartitioner(header, 5000, overlap)
        rows.append((overlap, ranger.replication_factor(records)))
    return rows


def test_ablation_overlap_replication(benchmark):
    rows = benchmark(overlap_ablation)
    lines = [f"{'overlap (bp)':>13s}{'replication factor':>20s}"]
    for overlap, factor in rows:
        lines.append(f"{overlap:>13d}{factor:>20.3f}")
    lines.append("the cost of the safe overlapping HC partitioning (S3.2)")
    report("ablation_overlap_replication", "\n".join(lines))
    report_json(
        "ablation_overlap_replication",
        wall_seconds=bench_seconds(benchmark),
        params={"records": 3000, "range_bp": 5000},
        counters={f"replication.overlap_{overlap}": round(factor, 4)
                  for overlap, factor in rows},
    )
    factors = [factor for _, factor in rows]
    assert factors == sorted(factors)
    assert factors[0] < 1.05   # near-zero replication without overlap
    assert factors[-1] < 1.6   # bounded even at a generous overlap
