"""The per-record fast path against the code it replaced.

*Refactoring guards*, labelled as such: ``tests/reference_kernels.py``
holds the ``SpillBuffer``, ``merge_sorted_runs`` and
``_default_value_size`` bodies from before the fast path, and the
shipped code must produce the same segment bytes, tallies, counts and
sizes on seeded and generated emit streams.  Beside them, two pins that
need no past: the merge's ordering contract (``merge_sorted_runs_list``
== ``sorted(chain(*runs))``, by object identity) and partition-of-key
(``crc32`` of the canonical bytes, for every canonical key type).
"""

import collections
import enum
import os
import random
import zlib
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.plan import Enospc, FaultPlan
from repro.errors import PartitioningError, ShuffleError
from repro.formats.sam import SamRecord
from repro.io import FaultIO, IoPolicy, build_io
from repro.mapreduce import ExecutionPolicy, MapReduceEngine
from repro.mapreduce.job import JobSpec, _default_value_size, make_splits
from repro.shuffle import (
    SpillBuffer,
    canonical_key_bytes,
    get_codec,
    merge_sorted_runs_list,
    stable_hash_partition,
)

from tests import reference_kernels as oracle


# -- merge: one ordering contract ---------------------------------------------
def _item_key(item):
    return item[0]


def _runs_of_distinct_objects(key_runs):
    """Sorted runs of ``[key, run, position]`` lists: equal keys, but
    every item its own object, so order is checked by identity."""
    return [
        [[key, run_index, position]
         for position, key in enumerate(sorted(keys))]
        for run_index, keys in enumerate(key_runs)
    ]


def _identities(items):
    return [id(item) for item in items]


class TestMergeContract:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), max_size=9), max_size=6))
    def test_lazy_eager_and_stable_sort_agree_by_identity(self, key_runs):
        runs = _runs_of_distinct_objects(key_runs)
        expected = _identities(sorted(chain(*runs), key=_item_key))
        assert _identities(merge_sorted_runs_list(runs, _item_key)) == expected
        assert _identities(oracle.merge_sorted_runs(runs, _item_key)) == expected

    def test_zero_runs_and_empty_runs(self):
        assert merge_sorted_runs_list([], key=_item_key) == []
        assert merge_sorted_runs_list([[], []], key=_item_key) == []

    def test_single_run_is_returned_as_is(self):
        run = [(1, "a"), (2, "b")]
        assert merge_sorted_runs_list([[], run, []], key=_item_key) is run


# -- SpillBuffer --------------------------------------------------------------
def _natural(key):
    return key


def _by_repr_reversed(key):
    return repr(key)[::-1]


def _spill_outcome(buffer_class, stream, sort_key, io_sort_records,
                   track_keys=3, bulk=False,
                   partitioner=stable_hash_partition, **disk):
    """Everything a buffer hands the task outcome, as plain values."""
    buffer = buffer_class(
        4, partitioner, sort_key, io_sort_records,
        track_keys=track_keys, **disk,
    )
    if bulk:
        buffer.add_all(stream)
    else:
        for key, value in stream:
            buffer.add(key, value)
    result = buffer.finish(get_codec("raw"))
    return {
        "blobs": [segment.blob for segment in result.segments],
        "records": [segment.records for segment in result.segments],
        "partition_records": result.partition_records,
        "key_counts": result.key_counts,
        "spills": result.spills,
    }


def assert_same_spill(stream, sort_key=None, **config):
    """Shipped buffer == reference buffer, by ``add`` and by ``add_all``.

    The reference needs a callable where the shipped buffer takes
    ``None`` for natural key order (the engine used to pass an identity
    function for that case).
    """
    expected = _spill_outcome(
        oracle.SpillBuffer, stream, sort_key or _natural, **config
    )
    assert _spill_outcome(SpillBuffer, stream, sort_key, **config) == expected
    assert _spill_outcome(
        SpillBuffer, stream, sort_key, bulk=True, **config
    ) == expected


def wordcount_stream(rng, emits=1800, vocabulary=53):
    words = [f"w{index:02d}" for index in range(vocabulary)]
    return [(rng.choice(words), 1) for _ in range(emits)]


def record_stream(rng, count=300):
    """Two records per read name, like round 2's map output."""
    records = []
    for index in range(count):
        qname = f"read{rng.randrange(count // 2):04d}"
        line = (f"{qname}\t99\tchr1\t{rng.randrange(1, 900)}\t60\t8M\t=\t"
                f"{rng.randrange(1, 900)}\t40\tACGTACGT\tIIIIIIII")
        records.append((qname, SamRecord.from_line(line)))
    return records


SPILL_SIZES = (1, 7, 1_000_000)

canonical_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, width=16), st.text("ab", max_size=2),
    st.binary(max_size=2),
)
canonical_keys = st.recursive(
    canonical_scalars,
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


class TestSpillBufferAgainstReference:
    @pytest.mark.parametrize("io_sort_records", SPILL_SIZES)
    # None is the engine's natural order; an explicit key function is
    # what a direct caller passes.
    @pytest.mark.parametrize("sort_key", (None, _natural))
    @pytest.mark.parametrize("track_keys", (0, 3))
    def test_seeded_wordcount(self, io_sort_records, sort_key, track_keys):
        stream = wordcount_stream(random.Random(io_sort_records))
        assert_same_spill(stream, sort_key=sort_key,
                          io_sort_records=io_sort_records,
                          track_keys=track_keys)

    @pytest.mark.parametrize("io_sort_records", SPILL_SIZES)
    def test_seeded_records_custom_sort_key(self, io_sort_records):
        stream = record_stream(random.Random(7))
        assert_same_spill(stream, io_sort_records=io_sort_records)
        assert_same_spill(stream, sort_key=_by_repr_reversed,
                          io_sort_records=io_sort_records)

    @settings(max_examples=120, deadline=None)
    @given(
        stream=st.lists(
            st.tuples(st.integers(-4, 4), st.integers(0, 9)), max_size=40
        ),
        io_sort_records=st.sampled_from(SPILL_SIZES),
        track_keys=st.sampled_from((0, 2)),
    )
    def test_generated_int_streams(self, stream, io_sort_records, track_keys):
        assert_same_spill(stream, io_sort_records=io_sort_records,
                          track_keys=track_keys)

    @settings(max_examples=120, deadline=None)
    @given(
        stream=st.lists(st.tuples(canonical_keys, st.integers(0, 9)),
                        max_size=30),
        io_sort_records=st.sampled_from(SPILL_SIZES),
    )
    def test_generated_mixed_canonical_keys(self, stream, io_sort_records):
        # Mixed key types only order under a sort_key that maps them to
        # one type; True / 1 / 1.0 meet in one tally here.
        assert_same_spill(stream, sort_key=repr,
                          io_sort_records=io_sort_records)

    @pytest.mark.parametrize("io_sort_records", SPILL_SIZES)
    def test_equal_but_distinct_keys_tally_under_the_first_emitted(
        self, io_sort_records
    ):
        # True == 1 == 1.0 share one tally entry, named by whichever was
        # emitted first — so keys are tallied in emit order, not sorted
        # order (repr order would name it 1).
        stream = [(key, 1) for key in (1.0, True, 1, 1, True, 2, 2.0)]
        config = dict(sort_key=repr, io_sort_records=io_sort_records,
                      partitioner=lambda key, count: 0)
        assert_same_spill(stream, **config)
        outcome = _spill_outcome(SpillBuffer, stream, **config)
        ranked = outcome["key_counts"][0]
        assert [(repr(key), count) for key, count in ranked] == \
            [("1.0", 5), ("2", 2)]

    @pytest.mark.parametrize("io_sort_records", SPILL_SIZES)
    def test_unhashable_keys_are_placed_but_not_tallied(self, io_sort_records):
        rng = random.Random(11)
        stream = [
            ((bytearray if rng.random() < 0.3 else bytes)(
                [97 + rng.randrange(4)]), index)
            for index in range(60)
        ]
        assert_same_spill(stream, io_sort_records=io_sort_records)
        outcome = _spill_outcome(SpillBuffer, stream, None, io_sort_records)
        tallied = sum(count for ranked in outcome["key_counts"]
                      for _, count in ranked)
        hashable = sum(1 for key, _ in stream if type(key) is bytes)
        assert 0 < tallied <= hashable < sum(outcome["partition_records"])

    def test_disk_spill_with_the_primary_dir_full(self, tmp_path):
        stream = wordcount_stream(random.Random(3), emits=200)

        def outcome(buffer_class, name, sort_key, **route):
            primary = str(tmp_path / name / "primary")
            secondary = str(tmp_path / name / "secondary")
            io = FaultIO(IoPolicy(), events=(
                Enospc(0, path_glob=os.path.join(primary, "*")),
            ))
            result = _spill_outcome(
                buffer_class, stream, sort_key, 64,
                spill_io=io, spill_dirs=(primary, secondary),
                spill_prefix="t-m-00000-e0", **route,
            )
            return result, io.stats

        expected, expected_stats = outcome(oracle.SpillBuffer, "ref", _natural)
        shipped, stats = outcome(SpillBuffer, "new", None, bulk=True)
        assert shipped == expected
        assert shipped["spills"] == 4
        # Each run fell back exactly once, and holds the same bytes.
        assert stats.fallback_spills == expected_stats.fallback_spills == 4
        assert stats.writes == expected_stats.writes == 4
        assert stats.bytes_written == expected_stats.bytes_written
        assert stats.unlinks == expected_stats.unlinks == 4


class TestSingleRunTouchesTheDiskOnce:
    """A map output that never filled its sort buffer is encoded from
    memory; one that overflowed spills every run, the tail included."""

    STREAM = record_stream(random.Random(21), count=240)
    SIZES = (1, 30, len(STREAM), len(STREAM) + 1, 100_000)

    @staticmethod
    def _disk(root, *events):
        dirs = (os.path.join(root, "primary"), os.path.join(root, "secondary"))
        io = FaultIO(IoPolicy(), events=tuple(events))
        return io, dict(spill_io=io, spill_dirs=dirs,
                        spill_prefix="t-m-00000-e0")

    @pytest.mark.parametrize("spill_records", SIZES)
    def test_same_segments_as_the_reference_and_only_the_io_it_needs(
        self, tmp_path, spill_records
    ):
        in_memory = _spill_outcome(
            oracle.SpillBuffer, self.STREAM, _natural, spill_records
        )
        assert _spill_outcome(
            SpillBuffer, self.STREAM, None, spill_records, bulk=True
        ) == in_memory
        ref_io, ref_disk = self._disk(str(tmp_path / "ref"))
        assert _spill_outcome(
            oracle.SpillBuffer, self.STREAM, _natural, spill_records,
            **ref_disk,
        ) == in_memory
        io, disk = self._disk(str(tmp_path / "new"))
        assert _spill_outcome(
            SpillBuffer, self.STREAM, None, spill_records, bulk=True, **disk
        ) == in_memory
        stats = io.stats
        if spill_records > len(self.STREAM):  # the tail is the only run
            assert in_memory["spills"] == 1
            assert (stats.writes, stats.fsyncs, stats.dir_fsyncs,
                    stats.reads, stats.unlinks, stats.bytes_written) == \
                (0, 0, 0, 0, 0, 0)
            assert not os.path.exists(str(tmp_path / "new"))
        else:  # every run, the tail included, goes out and comes back
            runs = in_memory["spills"]
            assert runs == -(-len(self.STREAM) // spill_records)
            assert stats.writes == stats.reads == stats.unlinks == runs
            assert stats.as_dict() == ref_io.stats.as_dict()
            mapspill = str(tmp_path / "new" / "primary" / "mapspill")
            assert os.listdir(mapspill) == []

    def test_a_full_primary_dir_still_counts_fallback_spills(self, tmp_path):
        root = str(tmp_path / "full-primary")
        io, disk = self._disk(
            root, Enospc(0, path_glob=os.path.join(root, "primary", "*"))
        )
        outcome = _spill_outcome(
            SpillBuffer, self.STREAM, None, 30, bulk=True, **disk
        )
        assert outcome == _spill_outcome(
            oracle.SpillBuffer, self.STREAM, _natural, 30
        )
        assert io.stats.fallback_spills == outcome["spills"] == 8

    def test_all_dirs_full_still_completes_in_memory(self, tmp_path):
        io, disk = self._disk(str(tmp_path / "all-full"), Enospc(0))
        outcome = _spill_outcome(
            SpillBuffer, self.STREAM, None, 30, bulk=True, **disk
        )
        assert outcome == _spill_outcome(
            oracle.SpillBuffer, self.STREAM, _natural, 30
        )
        assert io.stats.enospc == 2 * outcome["spills"]
        assert io.stats.writes == io.stats.reads == io.stats.unlinks == 0

    def test_multi_run_disk_path_is_reachable_from_a_job(self, tmp_path):
        """Quickstart-sized tasks fit their sort buffer now, so this job
        is what exercises disk runs + ENOSPC fallback end to end."""
        primary = str(tmp_path / "primary")
        fallback = str(tmp_path / "fallback")
        rng = random.Random(5)
        lines = [" ".join(word for word, _ in wordcount_stream(rng, emits=25))
                 for _ in range(12)]

        def mapper(chunk, ctx):
            for line in chunk:
                for word in line.split():
                    ctx.emit(word, 1)

        def reducer(word, counts, ctx):
            ctx.emit(word, sum(counts))

        def run(policy):
            io = build_io(policy)
            engine = MapReduceEngine(nodes=["n0", "n1"], policy=policy, io=io)
            try:
                spec = JobSpec(
                    name="wordcount", mapper=mapper, reducer=reducer,
                    num_reducers=2, io_sort_records=30,
                )
                splits = make_splits([lines[:6], lines[6:]])
                return engine.run(spec, splits), io
            finally:
                engine.close()

        expected, _ = run(ExecutionPolicy.serial())
        plan = FaultPlan(seed=0, events=(
            Enospc(0, path_glob=os.path.join(primary, "*")),
        ))
        result, io = run(ExecutionPolicy.serial(
            fault_plan=plan, io=IoPolicy(spill_dirs=(primary, fallback)),
        ))
        assert result.all_outputs() == expected.all_outputs()
        spills = [task.spills for task in result.history.tasks
                  if task.kind == "map"]
        assert spills == [5, 5]  # 150 emits per task, 30 to a run
        # Ten runs fell back past the full primary (the segments' own
        # fallbacks are counted on top), and each was read back once.
        assert io.stats.fallback_spills >= 10
        assert io.stats.reads >= 10 and io.stats.unlinks >= 10
        assert not any(files for _, _, files in os.walk(primary))


# -- value sizes --------------------------------------------------------------
class _Text(str):
    pass


class _Blob(bytes):
    pass


class _Sized:
    def __init__(self, size):
        self.size = size

    def line_bytes(self):
        return self.size


class _Opaque:
    def __repr__(self):
        return "<opaque value>"


_Point = collections.namedtuple("_Point", "x y")

sized_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.binary(), st.binary().map(bytearray),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple)
    ),
    max_leaves=12,
)


class TestValueSizeAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(sized_values)
    def test_generated_values(self, value):
        assert _default_value_size(value) == oracle._default_value_size(value)

    def test_each_kind_by_hand(self):
        record = record_stream(random.Random(1), count=2)[0][1]
        values = [
            0, -17, 10 ** 30, True, False, 1.5, float("inf"), None, "",
            "héllo", b"", b"abcd", bytearray(b"xyz"), [], (),
            [1, "a", (b"b", [None, 2.0])], (record, record), record,
            _Text("abc"), _Blob(b"abc"), _Point(1, "y"), _Sized(41),
            _Opaque(), object(), {"a": 1}, {1, 2},
        ]
        for value in values:
            assert _default_value_size(value) == \
                oracle._default_value_size(value), value
        assert _default_value_size(record) == len(record.to_line()) + 1
        assert _default_value_size(_Sized(41)) == 41
        assert _default_value_size(True) == 4  # a bool is not sized as int


# -- partition of key ---------------------------------------------------------
class _Name(str):
    pass


class _Rank(enum.IntEnum):
    LOW = 1


def _pinned_partition(key, num_partitions):
    return zlib.crc32(canonical_key_bytes(key)) % num_partitions


class TestPartitionOfKey:
    @settings(max_examples=400, deadline=None)
    @given(canonical_keys, st.integers(1, 64))
    def test_every_canonical_key_type(self, key, num_partitions):
        assert stable_hash_partition(key, num_partitions) == \
            _pinned_partition(key, num_partitions)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(), st.text(), st.floats(), st.binary()),
           st.integers(1, 64))
    def test_full_range_scalars(self, key, num_partitions):
        assert stable_hash_partition(key, num_partitions) == \
            _pinned_partition(key, num_partitions)

    def test_equal_but_distinct_keys_keep_their_own_encoding(self):
        assert True == 1 == 1.0  # noqa: E712 - the point of the test
        encodings = [canonical_key_bytes(key) for key in (True, 1, 1.0)]
        assert encodings[:2] == [b"b:1", b"i:1"]
        assert len(set(encodings)) == 3
        for key in (True, 1, 1.0, (True,), (1,), (1.0,)):
            for num_partitions in (1, 3, 7, 64):
                assert stable_hash_partition(key, num_partitions) == \
                    _pinned_partition(key, num_partitions)

    def test_subclasses_take_the_general_chain(self):
        for key, plain in ((_Name("chr1"), "chr1"), (_Rank.LOW, 1)):
            assert stable_hash_partition(key, 7) == \
                _pinned_partition(key, 7) == stable_hash_partition(plain, 7)

    def test_non_canonical_key_raises_at_the_first_record(self):
        buffer = SpillBuffer(4, stable_hash_partition, None, 100)
        with pytest.raises(PartitioningError, match="no canonical encoding"):
            buffer.add_all([(["chr1", 5], 1), ("never", 2)])
        assert buffer.finish(get_codec("raw")).partition_records == [0] * 4

    @pytest.mark.parametrize("bad", (-1, 4))
    def test_out_of_range_partition_names_the_key(self, bad):
        def partitioner(key, num_partitions):
            return bad if key == "stray" else 0

        for route in ("add", "add_all"):
            buffer = SpillBuffer(4, partitioner, None, 100)
            with pytest.raises(ShuffleError, match="'stray'.*outside"):
                if route == "add":
                    buffer.add("fine", 1)
                    buffer.add("stray", 2)
                else:
                    buffer.add_all([("fine", 1), ("stray", 2)])
            # -1 must not have landed in the last partition's list.
            assert buffer.finish(get_codec("raw")).partition_records == \
                [1, 0, 0, 0]
