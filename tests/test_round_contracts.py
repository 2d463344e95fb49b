"""Round output files against their declared contracts, and the
recalibration tables against a naive count.

The checkers live in ``tests/sam_contracts.py`` and import nothing from
``repro``: they read the round BAMs as bytes.  Rounds 1-4 run once per
executor, and every round-2, -3 and -4 file (with round 4's ``.bai``)
must pass.  Each contract is also shown to catch a seeded breach.
"""

import struct
import zlib

import pytest

from repro.formats.bam import read_bam
from repro.gdpt.partitioner import split_pairs_contiguously
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.executors import fork_available
from repro.mapreduce.policy import ExecutionPolicy
from repro.recal.recalibrator import BaseRecalibrator
from repro.wrappers.rounds import GesallRounds
from tests import sam_contracts as oracle

EXECUTORS = [
    ExecutionPolicy.serial(),
    pytest.param(
        ExecutionPolicy.pooled(max_workers=2),
        marks=pytest.mark.skipif(not fork_available(),
                                 reason="fork start method unavailable"),
    ),
]


@pytest.fixture(scope="module", params=EXECUTORS,
                ids=["serial", "pool"])
def round_files(request, reference, aligner, pairs):
    """Round key -> {path: bytes} of one rounds 1-4 run."""
    hdfs = Hdfs(["n0", "n1", "n2", "n3"], replication=2,
                block_size=64 * 1024)
    rounds = GesallRounds(hdfs, None, aligner, reference,
                          chunk_bytes=8 * 1024, policy=request.param)
    try:
        paths = {"round1": rounds.round1_alignment(
            split_pairs_contiguously(list(pairs), 4))}
        paths["round2"] = rounds.round2_cleaning(paths["round1"],
                                                 num_reducers=3)
        paths["round3"] = rounds.round3_mark_duplicates(paths["round2"],
                                                        num_reducers=3)
        paths["round4"] = rounds.round4_sort_index(paths["round3"])
    finally:
        rounds.close()
    files = {key: {path: hdfs.get(path) for path in found}
             for key, found in paths.items()}
    files["bai"] = {path: hdfs.get(path + ".bai") for path in paths["round4"]}
    return files


def _records(files):
    return [record for data in files.values()
            for record in oracle.parse(data)[1]]


class TestRoundFileContracts:
    def test_round2_mates_agree(self, round_files):
        assert round_files["round2"]
        for path, data in round_files["round2"].items():
            assert oracle.parse(data)[0]["SO"] == "queryname"
            assert oracle.file_problems(data) == [], path

    def test_round3_files_are_coordinate_sorted(self, round_files):
        for path, data in round_files["round3"].items():
            assert oracle.parse(data)[0]["SO"] == "coordinate"
            assert oracle.file_problems(data) == [], path

    def test_round3_one_non_duplicate_per_five_prime_set(self, round_files):
        records = _records(round_files["round3"])
        assert any(r.has(oracle.DUPLICATE) for r in records)
        assert oracle.duplicate_problems(records) == []

    def test_round4_sorted_per_contig_and_indexed(self, round_files):
        assert round_files["round4"]
        for path, data in round_files["round4"].items():
            contig = path.rsplit("/", 1)[1][: -len(".bam")]
            records = oracle.parse(data)[1]
            assert {r.rname for r in records} == {contig}
            assert oracle.file_problems(
                data, round_files["bai"][path]
            ) == [], path

    def test_no_record_lost_between_rounds(self, round_files):
        assert len(_records(round_files["round2"])) == len(
            _records(round_files["round1"])
        ) == len(_records(round_files["round3"]))


def _rewrite(data: bytes, edit) -> bytes:
    """Re-frame ``data`` after ``edit(lines)`` rewrites each data chunk."""
    out = [oracle.MAGIC]
    for index, (_, payload) in enumerate(oracle.frames(data)):
        if index and payload:
            payload = "\n".join(edit(payload.decode().split("\n"))).encode()
        body = zlib.compress(payload)
        out.append(struct.pack("<4sII", oracle.FRAME_MAGIC, len(payload),
                               len(body)) + body)
    return b"".join(out)


def _set_field(line: str, index: int, value) -> str:
    fields = line.split("\t")
    fields[index] = str(value)
    return "\t".join(fields)


class TestContractsCatchBreaches:
    """Each checker reports a seeded breach of its contract."""

    @pytest.fixture(scope="class")
    def files(self, reference, aligner, pairs):
        hdfs = Hdfs(["n0", "n1"], replication=1, block_size=64 * 1024)
        rounds = GesallRounds(hdfs, None, aligner, reference,
                              chunk_bytes=8 * 1024)
        r1 = rounds.round1_alignment(split_pairs_contiguously(
            list(pairs)[:400], 2))
        r2 = rounds.round2_cleaning(r1, num_reducers=1)
        r3 = rounds.round3_mark_duplicates(r2, mode="reg", num_reducers=1)
        r4 = rounds.round4_sort_index(r3)
        return (hdfs.get(r2[0]), hdfs.get(r3[0]),
                hdfs.get(r4[0]), hdfs.get(r4[0] + ".bai"))

    def test_tlen_sign_flip(self, files):
        def flip(lines):
            mapped = next(i for i, line in enumerate(lines)
                          if int(line.split("\t")[8]) != 0)
            tlen = int(lines[mapped].split("\t")[8])
            lines[mapped] = _set_field(lines[mapped], 8, -tlen)
            return lines
        problems = oracle.file_problems(_rewrite(files[0], flip))
        assert any("TLEN" in p for p in problems)

    def test_wrong_pnext(self, files):
        def shift(lines):
            lines[0] = _set_field(lines[0], 7,
                                  int(lines[0].split("\t")[7]) + 1)
            return lines
        problems = oracle.file_problems(_rewrite(files[0], shift))
        assert any("PNEXT" in p for p in problems)

    def test_unflagged_duplicate(self, files):
        records = oracle.parse(files[1])[1]
        assert oracle.duplicate_problems(records) == []
        duplicate = next(r for r in records if r.has(oracle.DUPLICATE))
        duplicate.flag &= ~oracle.DUPLICATE
        assert oracle.duplicate_problems(records)

    def test_unsorted_chunk(self, files):
        problems = oracle.file_problems(
            _rewrite(files[2], lambda lines: lines[::-1]))
        assert any("sorts before" in p for p in problems)

    def test_index_offset_off_its_chunk(self, files):
        data, bai = files[2], files[3]
        assert oracle.file_problems(data, bai) == []
        lines = bai.decode().split("\n")
        rname, pos, offset = lines[0].split("\t")
        lines[0] = f"{rname}\t{pos}\t{int(offset) + 1}"
        broken = "\n".join(lines).encode()
        assert any("not a chunk start" in p
                   for p in oracle.index_problems(data, broken))


class TestRecalibrationOracle:
    """BaseRecalibrator's tables equal a naive dict count, serially and
    through ``GesallRounds.round_recalibrate``."""

    @pytest.fixture(scope="class")
    def round3(self, reference, aligner, pairs):
        """Round-3 files: duplicates flagged, so the skip is exercised."""
        hdfs = Hdfs(["n0", "n1", "n2"], replication=1, block_size=64 * 1024)
        rounds = GesallRounds(hdfs, None, aligner, reference,
                              chunk_bytes=8 * 1024)
        r1 = rounds.round1_alignment(split_pairs_contiguously(list(pairs), 3))
        r2 = rounds.round2_cleaning(r1, num_reducers=2)
        r3 = rounds.round3_mark_duplicates(r2, num_reducers=2)
        return rounds, hdfs, r3

    @staticmethod
    def _as_dicts(table):
        return {
            name: {key: [c.observed, c.errors]
                   for key, c in getattr(table, name).items()}
            for name in ("read_group", "reported", "extra")
        }

    @pytest.fixture(scope="class")
    def known_sites(self, reference):
        return frozenset(
            (contig, pos) for contig in reference.contig_names()
            for pos in range(1, reference.contig_length(contig) + 1, 53)
        )

    def test_serial_table_is_the_naive_count(self, round3, reference,
                                             known_sites):
        _, hdfs, paths = round3
        expected = oracle.naive_recal_counts(
            _records({p: hdfs.get(p) for p in paths}), reference.contigs,
            known_sites,
        )
        assert expected["extra"]
        records = [r for p in paths for r in read_bam(hdfs.get(p))[1]]
        table = BaseRecalibrator(reference, set(known_sites)).build_table(
            records
        )
        assert self._as_dicts(table) == expected

    def test_round_recalibrate_is_the_naive_count(self, round3, reference):
        rounds, hdfs, paths = round3
        expected = oracle.naive_recal_counts(
            _records({p: hdfs.get(p) for p in paths}), reference.contigs,
        )
        assert self._as_dicts(rounds.round_recalibrate(paths)) == expected
