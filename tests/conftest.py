"""Shared fixtures: one small synthetic dataset reused across the suite.

Session-scoped because building the reference index and aligning reads
are the expensive steps; tests must treat these fixtures as read-only
(copy records before mutating).
"""

from __future__ import annotations

import pytest

from repro.align import AlignerConfig, PairedEndAligner, ReferenceIndex
from repro.genome import (
    DonorSimulationConfig,
    ReadSimulationConfig,
    ReferenceSimulationConfig,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)
from tests import pins


def pytest_addoption(parser):
    parser.addoption(
        "--recapture", action="store_true",
        help="rewrite tests/pins.json with what the selected tests "
             "produce and print the diff (see tests/pins.py)",
    )


def pytest_configure(config):
    pins.PINS.recapture = config.getoption("--recapture")


def pytest_terminal_summary(terminalreporter, config):
    if config.getoption("--recapture"):
        terminalreporter.write(pins.PINS.write())


@pytest.fixture(scope="session")
def reference():
    return simulate_reference(
        ReferenceSimulationConfig(
            contig_lengths={"chr1": 9000, "chr2": 7000}, seed=101
        )
    )


@pytest.fixture(scope="session")
def donor(reference):
    return simulate_donor(
        reference, DonorSimulationConfig(snp_rate=2.0e-3, indel_rate=2.0e-4, seed=102)
    )


@pytest.fixture(scope="session")
def read_data(donor):
    """(pairs, fragments) at modest coverage."""
    return simulate_reads(
        donor, ReadSimulationConfig(coverage=12.0, seed=103)
    )


@pytest.fixture(scope="session")
def pairs(read_data):
    return read_data[0]


@pytest.fixture(scope="session")
def fragments(read_data):
    return read_data[1]


@pytest.fixture(scope="session")
def ref_index(reference):
    return ReferenceIndex(reference)


@pytest.fixture(scope="session")
def aligner(ref_index):
    return PairedEndAligner(ref_index, AlignerConfig(seed=7))


@pytest.fixture(scope="session")
def aligned(aligner, pairs):
    """Serial alignment of the whole dataset (read-only!)."""
    return aligner.align_all(pairs, batch_size=400)


@pytest.fixture(scope="session")
def sam_header(aligner):
    return aligner.header()


@pytest.fixture()
def aligned_copy(aligned):
    """A mutable copy of the aligned records for in-place stages."""
    return [record.copy() for record in aligned]
