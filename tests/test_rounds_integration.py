"""Integration tests: the five MapReduce rounds and full pipelines.

These run the complete Gesall pipeline on the shared synthetic dataset
and check the paper's functional claims: record conservation across
rounds, duplicate-count equivalence with the serial gold standard, and
the characteristic small discordances of parallel execution.
"""

import functools
import hashlib

import pytest

from repro.align.pairing import PairedEndAligner
from repro.cleaning.duplicates import MarkDuplicates, duplicate_count
from repro.cleaning.sort import SortSam, coordinate_key, coordinate_line_key
from repro.errors import PipelineError
from repro.formats.bam import (
    BamLinearIndex, bam_bytes, decode_bam_lines, read_bam,
)
from repro.formats import sam as sam_module
from repro.formats.sam import SamHeader, SamRecord
from repro.gdpt.bloom import BloomFilter
from repro.gdpt.partitioner import (
    build_partial_position_bloom, records_by_pair, split_pairs_contiguously,
)
from repro.hdfs.bam_storage import upload_bam
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce import counters as C
from repro.mapreduce import task as task_module
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.executors import fork_available
from repro.mapreduce.policy import ExecutionPolicy
from repro.pipeline.hybrid import HybridPipeline
from repro.pipeline.parallel import GesallPipeline
from repro.pipeline.serial import SerialPipeline
from repro.wrappers.rounds import GesallRounds
from tests import pins


@pytest.fixture(scope="module")
def rounds_env(reference, ref_index, aligner, pairs):
    """A GesallRounds instance with Round 1 already executed."""
    hdfs = Hdfs(["n0", "n1", "n2", "n3"], replication=2, block_size=64 * 1024)
    engine = MapReduceEngine(nodes=hdfs.nodes)
    rounds = GesallRounds(hdfs, engine, aligner, reference, chunk_bytes=8 * 1024)
    partitions = split_pairs_contiguously(list(pairs), 6)
    round1_paths = rounds.round1_alignment(partitions)
    return rounds, hdfs, round1_paths


def read_all(hdfs, paths):
    records = []
    for path in paths:
        _, part = read_bam(hdfs.get(path))
        records.extend(part)
    return records


def lines_sha1(items):
    """SHA-1 over the text lines of SAM records or VCF calls."""
    text = "".join(item.to_line() + "\n" for item in items)
    return hashlib.sha1(text.encode()).hexdigest()


# Golden bytes of the shared dataset (conftest seeds 101/102/103, aligner
# seed 7) live in ``tests/pins.json`` as ``round1_sam_sha1`` and
# ``round5_vcf_sha1``, first captured on the commit before the kernel
# fast path (PR 13).  A kernel change that is meant to keep the output
# must keep them; one that is meant to move it re-pins them deliberately
# (``--recapture``, see ``tests/pins.py``).  PR 23 re-pinned the SAM (was
# 074051de...): Smith-Waterman bands around the seed's diagonal and
# traces gaps by value, which moved the CIGAR of a handful of gapped
# reads.  The VCF did not move.


class TestRound1:
    def test_one_output_partition_per_input(self, rounds_env, pairs):
        rounds, hdfs, paths = rounds_env
        assert len(paths) == 6

    def test_all_reads_aligned_once(self, rounds_env, pairs):
        rounds, hdfs, paths = rounds_env
        records = read_all(hdfs, paths)
        assert len(records) == 2 * len(pairs)
        names = {r.qname for r in records}
        assert len(names) == len(pairs)

    def test_outputs_are_logical_partitions(self, rounds_env):
        rounds, hdfs, paths = rounds_env
        for path in paths:
            assert hdfs.get_file(path).logical_partition

    def test_golden_sam_bytes(self, rounds_env):
        rounds, hdfs, paths = rounds_env
        pins.check("round1_sam_sha1", lines_sha1(read_all(hdfs, paths)))


class TestRound2:
    @pytest.fixture(scope="class")
    def round2(self, rounds_env):
        rounds, hdfs, round1_paths = rounds_env
        paths = rounds.round2_cleaning(round1_paths, out_dir="/r2t",
                                       num_reducers=3)
        return rounds, hdfs, paths

    def test_read_groups_stamped(self, round2):
        rounds, hdfs, paths = round2
        records = read_all(hdfs, paths)
        assert all(r.tags.get("RG") == "RG1" for r in records)

    def test_pairs_stay_together(self, round2):
        """Logical partitioning: both reads of a pair in one partition."""
        rounds, hdfs, paths = round2
        for path in paths:
            _, records = read_bam(hdfs.get(path))
            counts = {}
            for record in records:
                counts[record.qname] = counts.get(record.qname, 0) + 1
            assert all(count == 2 for count in counts.values())

    def test_mate_info_fixed(self, round2):
        rounds, hdfs, paths = round2
        records = read_all(hdfs, paths)
        by_name = {}
        for record in records:
            by_name.setdefault(record.qname, []).append(record)
        for ends in by_name.values():
            first = next(e for e in ends if e.flags.is_first_in_pair)
            second = next(e for e in ends if e.flags.is_second_in_pair)
            if first.is_mapped and second.is_mapped:
                assert first.pnext == second.pos
                assert second.pnext == first.pos

    def test_record_conservation(self, round2, rounds_env, pairs):
        rounds, hdfs, paths = round2
        records = read_all(hdfs, paths)
        # CleanSam may drop overhanging alignments; nothing else changes.
        assert 0 <= 2 * len(pairs) - len(records) < 0.02 * 2 * len(pairs)


class TestRound3:
    @pytest.fixture(scope="class")
    def round3(self, rounds_env):
        from repro.mapreduce import counters as C
        rounds, hdfs, round1_paths = rounds_env
        r2 = rounds.round2_cleaning(round1_paths, out_dir="/r2md",
                                    num_reducers=3)
        opt = rounds.round3_mark_duplicates(r2, mode="opt", out_dir="/r3opt",
                                            num_reducers=3)
        opt_shuffled = rounds.results["round3"].counters.get(C.SHUFFLED_RECORDS)
        reg = rounds.round3_mark_duplicates(r2, mode="reg", out_dir="/r3reg",
                                            num_reducers=3)
        reg_shuffled = rounds.results["round3"].counters.get(C.SHUFFLED_RECORDS)
        return rounds, hdfs, r2, opt, reg, opt_shuffled, reg_shuffled

    def test_record_conservation(self, round3):
        rounds, hdfs, r2, opt, reg, _, _ = round3
        input_records = read_all(hdfs, r2)
        assert len(read_all(hdfs, opt)) == len(input_records)
        assert len(read_all(hdfs, reg)) == len(input_records)

    def test_opt_and_reg_mark_same_number(self, round3):
        rounds, hdfs, r2, opt, reg, _, _ = round3
        assert duplicate_count(read_all(hdfs, opt)) == duplicate_count(
            read_all(hdfs, reg)
        )

    def test_opt_shuffles_fewer_records(self, round3):
        """The bloom-filter optimization cuts shuffled records (paper:
        1.03x vs 1.92x the input)."""
        rounds, hdfs, r2, opt, reg, opt_shuffled, reg_shuffled = round3
        assert opt_shuffled < reg_shuffled

    def test_duplicate_count_matches_serial(self, round3, sam_header):
        """Paper section 4.5.2: the number of duplicates matches the
        serial gold standard (only tie choices differ)."""
        rounds, hdfs, r2, opt, reg, _, _ = round3
        input_records = read_all(hdfs, r2)
        serial = MarkDuplicates()
        _, serial_out = serial.run(sam_header, input_records)
        parallel_count = duplicate_count(read_all(hdfs, opt))
        assert parallel_count == duplicate_count(serial_out)

    def test_outputs_coordinate_sorted_within_partition(self, round3):
        rounds, hdfs, r2, opt, reg, _, _ = round3
        for path in opt:
            header, records = read_bam(hdfs.get(path))
            mapped = [r for r in records if r.is_mapped]
            order = {name: i for i, name in enumerate(header.sequence_names())}
            keys = [(order.get(r.rname, 99), r.pos) for r in mapped]
            assert keys == sorted(keys)


class TestRounds45:
    @pytest.fixture(scope="class")
    def round5(self, rounds_env, reference):
        rounds, hdfs, round1_paths = rounds_env
        r2 = rounds.round2_cleaning(round1_paths, out_dir="/r2v",
                                    num_reducers=3)
        r3 = rounds.round3_mark_duplicates(r2, mode="opt", out_dir="/r3v",
                                           num_reducers=3)
        r4 = rounds.round4_sort_index(r3, out_dir="/r4v")
        variants = rounds.round5_haplotype_caller(r4)
        return rounds, hdfs, r4, variants

    def test_one_partition_per_contig(self, round5, reference):
        rounds, hdfs, r4, variants = round5
        assert len(r4) == len(reference.contig_names())

    def test_partitions_sorted_and_indexed(self, round5):
        rounds, hdfs, r4, variants = round5
        for path in r4:
            header, records = read_bam(hdfs.get(path))
            assert header.sort_order == "coordinate"
            positions = [r.pos for r in records]
            assert positions == sorted(positions)
            assert hdfs.exists(path + ".bai")

    def test_variants_called(self, round5, donor):
        rounds, hdfs, r4, variants = round5
        assert variants
        truth = donor.truth_sites()
        hits = sum(1 for v in variants if v.site_key() in truth)
        assert hits / len(truth) > 0.4  # sensitivity sanity bound

    def test_variants_sorted(self, round5):
        rounds, hdfs, r4, variants = round5
        keys = [v.site_key() for v in variants]
        assert keys == sorted(keys)

    def test_golden_vcf_bytes(self, round5):
        rounds, hdfs, r4, variants = round5
        pins.check("round5_vcf_sha1", lines_sha1(variants))


class TestRecalRounds:
    def test_recalibration_table_built_and_applied(self, rounds_env):
        rounds, hdfs, round1_paths = rounds_env
        r2 = rounds.round2_cleaning(round1_paths, out_dir="/r2rc",
                                    num_reducers=2)
        table = rounds.round_recalibrate(r2)
        assert table.total_observations() > 0
        out = rounds.round_print_reads(r2, table, out_dir="/bqsr")
        before = read_all(hdfs, r2)
        after = read_all(hdfs, out)
        assert len(before) == len(after)
        changed = sum(
            1 for b, a in zip(
                sorted(before, key=lambda r: (r.qname, int(r.flags))),
                sorted(after, key=lambda r: (r.qname, int(r.flags))),
            )
            if b.qual != a.qual
        )
        assert changed > 0

    def test_parallel_table_matches_serial(self, rounds_env, reference):
        from repro.recal.recalibrator import BaseRecalibrator
        rounds, hdfs, round1_paths = rounds_env
        r2 = rounds.round2_cleaning(round1_paths, out_dir="/r2rc2",
                                    num_reducers=2)
        parallel_table = rounds.round_recalibrate(r2)
        serial_table = BaseRecalibrator(reference).build_table(
            read_all(hdfs, r2)
        )
        assert (
            parallel_table.total_observations()
            == serial_table.total_observations()
        )


# ---------------------------------------------------------------------------
# Rounds 2-4 write their BAM in the reduce task: bytes pinned on the parent
# ---------------------------------------------------------------------------
#: Refactoring guard.  ``round_file_sha1`` in ``tests/pins.json``: SHA-1
#: of the raw HDFS bytes (``hdfs.get(path)``, not decoded lines) of every
#: file rounds 2, 3 (opt) and 4 leave behind on the shared dataset — 6
#: round-1 partitions, 3 reducers, 8 KiB chunks — captured on commit
#: 1549ecf, where the *driver* sorted, rendered, framed, indexed and
#: uploaded them.  The key order is the directory listing.  Re-captured
#: twice since, both by PR 23: its Smith-Waterman fix moved the round-1
#: CIGARs these files carry (``/round4/chr1.bam*`` held none of them and
#: kept its bytes; ``round_transform``'s byte totals moved with them, no
#: count did), then its frames went from deflate level 6 to 1 (every
#: file's bytes and ``.bai`` offsets, no record).
#: Same capture: what each round method returned.
ROUND_PATHS = {
    "round2": [f"/round2/part-{i:05d}.bam" for i in range(3)],
    "round3": [f"/round3/part-{i:05d}.bam" for i in range(3)],
    "round4": ["/round4/chr1.bam", "/round4/chr2.bam"],
}
#: Same capture: (REDUCE_OUTPUT_RECORDS, SHUFFLED_RECORDS, TASK_COMMITS).
ROUND_COUNTERS = {
    "round2": (2020, 2020, 9),
    "round3": (2020, 1023, 6),
    "round4": (1968, 1968, 5),
}
#: Same capture, ``round_transform`` in ``tests/pins.json``: merged
#: DataTransformAccounting (bytes to the wrapped programs, bytes back,
#: invocations).  Round 2's invocations were 1022 (6 maps x 2 programs +
#: one FixMateInformation call per read name) until FixMateInformation
#: ran once per reduce partition: 6 x 2 + 3 reducers.  The byte totals
#: did not move then; PR 23's shorter CIGARs took 27 / 36 / 18 / 18 bytes
#: off them.

ROUND_FILE_POLICIES = [
    pytest.param(ExecutionPolicy.serial(), id="serial"),
    pytest.param(
        ExecutionPolicy.pooled(2), id="pool2",
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable"
        ),
    ),
]


def run_cleaning_rounds(reference, round1_files, policy, num_reducers=3):
    """Rounds 2 -> 3 (opt) -> 4 over ``round1_files`` on a fresh HDFS."""
    hdfs = Hdfs(["n0", "n1", "n2", "n3"], replication=2, block_size=64 * 1024)
    for path, data in round1_files:
        hdfs.put(path, data, logical_partition=True)
    rounds = GesallRounds(
        hdfs, None, None, reference, chunk_bytes=8 * 1024, policy=policy
    )
    try:
        paths = {}
        paths["round2"] = rounds.round2_cleaning(
            [path for path, _ in round1_files], num_reducers=num_reducers
        )
        paths["round3"] = rounds.round3_mark_duplicates(
            paths["round2"], mode="opt", num_reducers=num_reducers
        )
        paths["round4"] = rounds.round4_sort_index(paths["round3"])
    finally:
        rounds.close()
    return rounds, hdfs, paths


class TestRoundFilesWrittenInTheReduceTask:
    @pytest.fixture(scope="class")
    def round1_files(self, rounds_env):
        _, hdfs, round1_paths = rounds_env
        return [(path, hdfs.get(path)) for path in round1_paths]

    @pytest.mark.parametrize("policy", ROUND_FILE_POLICIES)
    def test_bytes_paths_and_counts_match_the_parent(
        self, reference, round1_files, policy
    ):
        rounds, hdfs, paths = run_cleaning_rounds(
            reference, round1_files, policy
        )
        assert paths == ROUND_PATHS
        listing = [
            path for key in ROUND_PATHS for path in hdfs.list_dir(f"/{key}")
        ]
        pins.check("round_file_sha1", {
            path: hashlib.sha1(hdfs.get(path)).hexdigest() for path in listing
        })
        assert all(hdfs.get_file(path).logical_partition for path in listing)
        for key, expected in ROUND_COUNTERS.items():
            counters = rounds.results[key].counters
            assert (
                counters.get(C.REDUCE_OUTPUT_RECORDS),
                counters.get(C.SHUFFLED_RECORDS),
                counters.get(C.TASK_COMMITS),
            ) == expected, key
        pins.check("round_transform", {
            key: (t.bytes_to_program, t.bytes_from_program, t.invocations)
            for key, t in rounds.transform.items()
        })
        # No SamRecord crosses back after the reduce wave: a reduce
        # task's output is the path it wrote and how many records.
        for key in ROUND_PATHS:
            assert rounds.results[key].reduce_outputs
            values = rounds.results[key].all_outputs()
            assert [path for path, _ in values] == paths[key]
            for path, count in values:
                assert type(path) is str and type(count) is int
            assert sum(count for _, count in values) == ROUND_COUNTERS[key][0]

    @pytest.mark.parametrize("policy", ROUND_FILE_POLICIES)
    def test_round2_bloom_sidecars_are_the_prepass_filter(
        self, reference, round1_files, policy
    ):
        """The ``.bloom`` files round 2's reducers write beside their
        BAMs, merged, are the filter the removed pre-pass job computed
        from the decoded BAMs: same geometry, bits and item count."""
        rounds, hdfs, paths = run_cleaning_rounds(
            reference, round1_files, policy
        )
        prepass = build_partial_position_bloom(
            pair for path in paths["round2"]
            for pair in records_by_pair(read_bam(hdfs.get(path))[1])
        )
        merged = BloomFilter()
        for path in paths["round2"]:
            merged.merge(BloomFilter.from_bytes(
                hdfs.get(path[:-len(".bam")] + ".bloom")
            ))
        assert merged.items_added > 0
        assert merged.to_bytes() == prepass.to_bytes()
        assert set(rounds.results) == set(ROUND_PATHS)

    def test_opt_refuses_a_bam_without_its_bloom_sidecar(
        self, reference, aligned, sam_header
    ):
        by_name = {}
        for record in aligned:
            by_name.setdefault(record.qname, []).append(record.copy())
        hdfs = Hdfs(["n0", "n1"], replication=2)
        upload_bam(
            hdfs, "/in/part-00000.bam", sam_header,
            [r for mates in list(by_name.values())[:3] for r in mates],
            logical_partition=True,
        )
        rounds = GesallRounds(hdfs, None, None, reference)
        with pytest.raises(PipelineError, match="bloom sidecar"):
            rounds.round3_mark_duplicates(["/in/part-00000.bam"], mode="opt")
        assert rounds.results == {}
        # MarkDup_reg keys without a filter, so it needs no sidecar.
        assert rounds.round3_mark_duplicates(
            ["/in/part-00000.bam"], mode="reg", num_reducers=1
        ) == ["/round3/part-00000.bam"]

    def test_empty_reducers_leave_no_hole_and_round4_no_file(
        self, reference, aligned, sam_header
    ):
        """More reducers than read names: rounds 2/3 still write a
        header-only ``part-%05d.bam`` per reducer, round 4 writes
        nothing for a contig no read maps to."""
        by_name = {}
        for record in aligned:
            by_name.setdefault(record.qname, []).append(record)
        on_chr1 = [
            mates for mates in by_name.values()
            if all(r.is_mapped and r.rname == "chr1" for r in mates)
        ][:3]
        hdfs = Hdfs(["n0", "n1"], replication=2)
        upload_bam(
            hdfs, "/in/part-00000.bam", sam_header,
            [r.copy() for mates in on_chr1 for r in mates],
            logical_partition=True,
        )
        rounds = GesallRounds(hdfs, None, None, reference)
        reducers = 8
        r2 = rounds.round2_cleaning(["/in/part-00000.bam"],
                                    num_reducers=reducers)
        r3 = rounds.round3_mark_duplicates(r2, mode="opt",
                                           num_reducers=reducers)
        r4 = rounds.round4_sort_index(r3)
        for out_dir, paths, order in (("/round2", r2, "queryname"),
                                      ("/round3", r3, "coordinate")):
            assert paths == [
                f"{out_dir}/part-{i:05d}.bam" for i in range(reducers)
            ]
            # Round 2 writes a bloom sidecar beside every BAM, empty ones too.
            sidecars = [path[:-len(".bam")] + ".bloom" for path in paths]
            assert hdfs.list_dir(out_dir) == sorted(
                paths + (sidecars if out_dir == "/round2" else [])
            )
            sizes = [len(read_bam(hdfs.get(path))[1]) for path in paths]
            assert sum(sizes) == 6 and sizes.count(0) >= reducers - 3
            empty = SamHeader(
                sequences=reference.sam_sequences(), sort_order=order
            )
            for path, size in zip(paths, sizes):
                if size == 0:
                    assert read_bam(hdfs.get(path)) == (empty, [])
        assert r4 == ["/round4/chr1.bam"]
        assert hdfs.list_dir("/round4") == [
            "/round4/chr1.bam", "/round4/chr1.bam.bai"
        ]
        assert rounds.results["round4"].reduce_outputs == {
            0: [("/round4/chr1.bam", 6)], 1: [],
        }


# ---------------------------------------------------------------------------
# Round 4 moves SAM lines: its shuffle key is the coordinate rule itself
# ---------------------------------------------------------------------------
def _line(qname, flag, rname, pos, seq="ACGTACGT"):
    return (f"{qname}\t{flag}\t{rname}\t{pos}\t60\t"
            f"{'*' if flag & 0x4 else f'{len(seq)}M'}\t=\t{pos}\t0\t"
            f"{seq}\t{'I' * len(seq)}")


#: Hand-built lines the line key must order as ``coordinate_key`` does.
HAND_BUILT_LINES = [
    _line("rev", 0x10 | 0x1 | 0x40, "chr1", 100),
    # Equal positions, two names; the ordering test puts them in two
    # map tasks, the later name in the earlier task.
    _line("qB", 0x1 | 0x20 | 0x40, "chr1", 200),
    _line("qA", 0x1 | 0x20 | 0x80, "chr1", 200),
    # A pair with one end unmapped, placed at its mate's position.
    _line("mu", 0x1 | 0x8 | 0x40, "chr2", 300),
    _line("mu", 0x1 | 0x4 | 0x80, "chr2", 300),
    # Unplaced, and outside the header.
    _line("un", 0x1 | 0x4 | 0x8 | 0x40, "*", 0),
    _line("alt", 0, "chrUn", 7),
    # FLAG bits above 0xFFF: the record masks them, the line key reads
    # the strand and unmapped bits from the raw integer.
    _line("hi", 0x1000 | 0x10, "chr1", 100),
    _line("hi4", 0x4000 | 0x4, "*", 0),
]


@pytest.fixture(scope="module")
def pinned_cleaning(rounds_env, reference):
    """``(hdfs, paths)`` of the pinned rounds 2-4 run, serial."""
    _, source, round1_paths = rounds_env
    _, hdfs, paths = run_cleaning_rounds(
        reference, [(path, source.get(path)) for path in round1_paths],
        ExecutionPolicy.serial(),
    )
    return hdfs, paths


class TestRound4MovesLines:
    @pytest.fixture(scope="class")
    def pinned_round3(self, pinned_cleaning):
        """The round-3 BAMs of the pinned rounds 2-4 run."""
        hdfs, paths = pinned_cleaning
        return [hdfs.get(path) for path in paths["round3"]]

    @staticmethod
    def _keys(reference):
        header = SamHeader(sequences=reference.sam_sequences())
        return coordinate_line_key(header), coordinate_key(header)

    def test_line_key_is_coordinate_key_on_every_round3_record(
        self, reference, pinned_round3
    ):
        line_key, record_key = self._keys(reference)
        lines = [line for data in pinned_round3
                 for line in decode_bam_lines(data)[1]]
        assert len(lines) == ROUND_COUNTERS["round3"][0]
        for line in lines:
            assert line_key(line) == record_key(SamRecord.from_line(line))

    def test_line_key_is_coordinate_key_on_hand_built_lines(self, reference):
        line_key, record_key = self._keys(reference)
        for line in HAND_BUILT_LINES:
            assert line_key(line) == record_key(SamRecord.from_line(line)), line
        keys = {line.split("\t", 1)[0]: line_key(line)
                for line in HAND_BUILT_LINES}
        assert keys["rev"] == (0, 100, 1, "rev")
        assert keys["hi"] == (0, 100, 1, "hi")
        assert keys["qA"] < keys["qB"]
        assert keys["mu"] == (1, 300, 0, "mu")
        assert keys["un"] == (2, 0, 0, "un")
        assert keys["alt"] == (2, 7, 0, "alt")
        assert keys["hi4"] == (2, 0, 0, "hi4")

    @pytest.mark.parametrize("policy", ROUND_FILE_POLICIES)
    def test_two_map_tasks_with_tied_positions_write_what_sortsam_writes(
        self, reference, policy
    ):
        """Ties on the whole key (one read's primary and secondary line
        in two tasks) keep map-task order, as SortSam's stable sort keeps
        input order; distinct names at one position sort by name."""
        records = [SamRecord.from_line(line) for line in HAND_BUILT_LINES]
        secondary = SamRecord.from_line(_line("rev", 0x10 | 0x100, "chr1", 100))
        tasks = [
            [records[1], records[0], records[3], records[5], records[6]],
            [records[2], secondary, records[7], records[4], records[0]],
        ]
        hdfs = Hdfs(["n0", "n1"], replication=1)
        header = SamHeader(sequences=reference.sam_sequences())
        inputs = []
        for index, task in enumerate(tasks):
            inputs.append(f"/in/part-{index:05d}.bam")
            upload_bam(hdfs, inputs[-1], header, task, logical_partition=True)
        rounds = GesallRounds(hdfs, None, None, reference, chunk_bytes=128,
                              policy=policy)
        try:
            paths = rounds.round4_sort_index(inputs)
        finally:
            rounds.close()
        assert paths == ["/round4/chr1.bam", "/round4/chr2.bam"]
        placed = [r for task in tasks for r in task if r.rname != "*"
                  and r.rname in header.sequence_names()]
        out_header, ordered = SortSam("coordinate").run(header, placed)
        for path in paths:
            contig = path[len("/round4/"):-len(".bam")]
            expected = bam_bytes(
                out_header, [r for r in ordered if r.rname == contig], 128)
            assert hdfs.get(path) == expected, path
            assert hdfs.get(path + ".bai") == (
                BamLinearIndex.build(expected).to_bytes())
        chr1 = read_bam(hdfs.get(paths[0]))[1]
        assert [(r.qname, r.flags.value) for r in chr1[:5]] == [
            ("hi", 0x10), ("rev", 0x51), ("rev", 0x110), ("rev", 0x51),
            ("qA", 0xA1),
        ]
        assert len(chr1) == 6


# ---------------------------------------------------------------------------
# Round 3 moves SAM lines: its reducer reads QUAL and rewrites FLAG
# ---------------------------------------------------------------------------
class TestRound3MovesLines:
    def test_every_round2_line_is_its_records_line(self, pinned_cleaning):
        """What the line reducer relies on: a line round 2 writes renders
        back from its record unchanged, so rewriting FLAG alone is the
        record path's output."""
        hdfs, paths = pinned_cleaning
        lines = [line for path in paths["round2"]
                 for line in decode_bam_lines(hdfs.get(path))[1]]
        assert len(lines) == ROUND_COUNTERS["round2"][0]
        for line in lines:
            assert SamRecord.from_line(line).to_line() == line

    @pytest.mark.parametrize("policy", ROUND_FILE_POLICIES)
    def test_round3_reduce_tasks_build_no_record(
        self, rounds_env, reference, policy, monkeypatch, tmp_path
    ):
        """Every record a map or reduce task builds (decoding its input
        or shuffle segments, running its kernels, writing) is counted
        through the record's two constructors, ``SamRecord.__init__``
        and ``_record_from_fields`` (``from_line``, ``copy`` and
        unpickling), and appended to a file, which forked pool workers
        share: rounds 2 and 3 move SAM lines and build none in any task;
        round 5, which still decodes records, builds one per read of
        round 4's output (the control that the count counts)."""
        built, log = [0], tmp_path / "built.txt"

        def counting(build):
            @functools.wraps(build)  # pickles by the same name
            def counted(*args, **kwargs):
                built[0] += 1
                return build(*args, **kwargs)
            return counted

        def logging(run_task):
            def counted(context, call):
                before = built[0]
                outcome = run_task(context, call)
                with open(log, "a") as handle:
                    handle.write(f"{call.task_id} {built[0] - before}\n")
                return outcome
            return counted

        monkeypatch.setattr(SamRecord, "__init__", counting(SamRecord.__init__))
        monkeypatch.setattr(sam_module, "_record_from_fields",
                            counting(sam_module._record_from_fields))
        for kind in ("map", "reduce"):
            monkeypatch.setitem(task_module._TASKS, kind,
                                logging(task_module._TASKS[kind]))
        _, source, round1_paths = rounds_env
        rounds, hdfs, paths = run_cleaning_rounds(
            reference, [(path, source.get(path)) for path in round1_paths],
            policy,
        )
        round5 = GesallRounds(hdfs, None, None, reference, policy=policy)
        try:
            round5.round5_haplotype_caller(paths["round4"])
        finally:
            round5.close()
        counts = dict(line.split() for line in log.read_text().splitlines())
        by_task = {(key, kind): [int(n) for task, n in counts.items()
                                 if task.startswith(f"{key}-")
                                 and f"-{kind}-" in task]
                   for key in ("round2", "round3", "round5")
                   for kind in ("m", "r")}
        assert by_task[("round2", "m")] == [0] * len(round1_paths)
        assert by_task[("round3", "m")] == [0, 0, 0]
        assert by_task[("round2", "r")] == by_task[("round3", "r")] == [0, 0, 0]
        assert len(by_task[("round5", "m")]) == 2
        assert sum(by_task[("round5", "m")]) >= ROUND_COUNTERS["round4"][0]
        pins.check("round_file_sha1", {
            path: hashlib.sha1(hdfs.get(path)).hexdigest()
            for key in ROUND_PATHS for path in hdfs.list_dir(f"/{key}")
        })
