"""Shared fixtures and reporting for the benchmark harness.

Each bench regenerates one table or figure of the paper.  Besides the
pytest-benchmark timing, every bench prints its regenerated rows and
writes them as ``benchmarks/results/BENCH_<experiment>.json`` so the
paper-vs-reproduction comparison in EXPERIMENTS.md can be re-checked
at any time.
"""

from __future__ import annotations

import pytest

from repro.align import AlignerConfig, ReferenceIndex
from repro.api import PipelineSpec
from repro.cluster.costs import NA12878, CostModel
from repro.diagnostics.toolkit import ErrorDiagnosisToolkit
from repro.genome import (
    DonorSimulationConfig,
    ReadSimulationConfig,
    ReferenceSimulationConfig,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)
from repro.pipeline.parallel import GesallPipeline
from repro.pipeline.serial import SerialPipeline
from repro.variants.haplotype import HaplotypeCallerConfig

@pytest.fixture(scope="session")
def cost_model():
    return CostModel()


@pytest.fixture(scope="session")
def workload():
    return NA12878


@pytest.fixture(scope="session")
def accuracy_study():
    """One functional serial-vs-parallel study shared by the accuracy
    benches (Tables 8-10, Fig 11): a larger genome and coverage than the
    unit-test fixtures so variant-level discordance is observable."""
    reference = simulate_reference(
        ReferenceSimulationConfig(
            contig_lengths={"chr1": 16000, "chr2": 12000, "chr3": 9000},
            seed=211,
        )
    )
    donor = simulate_donor(
        reference,
        DonorSimulationConfig(snp_rate=2.5e-3, indel_rate=3e-4, seed=212),
    )
    pairs, fragments = simulate_reads(
        donor, ReadSimulationConfig(coverage=22.0, seed=213)
    )
    index = ReferenceIndex(reference)
    # A downsampling cap near the sample's coverage makes the Haplotype
    # Caller's invocation-seeded downsampling fire, reproducing the
    # paper's observation that even chromosome-level partitioning gives
    # slightly different results (algorithmic nondeterminism).
    hc_config = HaplotypeCallerConfig(downsample_depth=16)
    spec = PipelineSpec(
        reference, index=index, num_fastq_partitions=12, num_reducers=4,
        aligner_config=AlignerConfig(seed=5), hc_config=hc_config,
    )
    serial = SerialPipeline(spec, batch_size=1500).run(pairs)
    parallel = GesallPipeline(spec).run(pairs)
    toolkit = ErrorDiagnosisToolkit(reference, hc_config)
    diagnosis = toolkit.diagnose(serial, parallel)
    return {
        "reference": reference,
        "donor": donor,
        "pairs": pairs,
        "fragments": fragments,
        "serial": serial,
        "parallel": parallel,
        "toolkit": toolkit,
        "diagnosis": diagnosis,
    }
