"""Workload descriptor and calibrated cost model.

Encodes the paper's NA12878 64x workload (1.24 billion read pairs,
282 GB per uncompressed FASTQ file, 375/785 GB MarkDuplicates shuffles)
and the per-program costs calibrated to the running times that survive
in the paper's prose (EXPERIMENTS.md documents every calibration).

All CPU costs are in *core-seconds at 2.4 GHz*; the simulator scales
them by each cluster's clock rate.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cluster.threading import BwaThreadModel

GB = 1024 ** 3
HOUR = 3600.0


class Workload(NamedTuple):
    """The NA12878 64x whole-genome sample (paper section 4.1)."""

    read_pairs: float = 1.24e9
    sam_records: float = 2.504895008e9
    fastq_bytes: float = 2 * 282 * GB
    compressed_input_bytes: float = 220 * GB
    bam_bytes: float = 150 * GB
    round2_shuffle_bytes: float = 390 * GB
    markdup_opt_shuffle_bytes: float = 375 * GB
    markdup_reg_shuffle_bytes: float = 785 * GB
    markdup_opt_record_ratio: float = 1.03
    markdup_reg_record_ratio: float = 1.92
    reference_index_bytes: float = 5 * GB
    chromosomes: int = 23


NA12878 = Workload()


class CostModel:
    """Calibrated program costs (core-seconds at 2.4 GHz).

    Calibration anchors from the paper text:

    * single-node CleanSam = 7 h 33 m; summed parallel CleanSam =
      11 h 03 m  (ratio 1.46, Fig 6b);
    * single-thread single-node MarkDuplicates = 14 h 26 m 42 s;
    * Cluster B alignment, 4 nodes x 16 single-threaded mappers =
      3 h 45 m 24 s;
    * MarkDup_opt Cluster B ~1 h 27 m; Round 4 = 1 h 01 m;
      Round 5 (Haplotype Caller, 23 partitions) = 7 h 14 m;
    * transformation shares between 12 % and 49 % of task time (Fig 6a).
    """

    def __init__(self, workload: Workload = NA12878):
        self.workload = workload

        # --- alignment -----------------------------------------------------
        #: Total Bwa+SamToBam work: 64 single-threaded mappers finish in
        #: ~13,500 s => ~800k core-seconds (plus I/O phases in the sim).
        self.bwa_total_core_seconds = 800_000.0
        #: Loading the reference index costs the first mapper on a node
        #: this much CPU (cold read + build of in-memory tables).
        self.index_load_core_seconds = 95.0
        #: Subsequent loads on the same node hit the page cache.
        self.index_reload_core_seconds = 6.0
        #: Extra per-mapper JVM/container start cost.
        self.mapper_startup_core_seconds = 5.0
        #: Streaming (pipe) overhead per byte crossing Hadoop<->C pipes.
        self.streaming_core_seconds_per_gb = 4.0
        #: Extra contention for multi-threaded mappers under streaming
        #: (why 16x1 beats 4x4 on Cluster B).
        self.streaming_thread_penalty = 0.07

        # --- single-threaded Picard/GATK program totals ----------------------
        self.addrepl_core_seconds = 12.0 * HOUR
        self.cleansam_core_seconds = 7.55 * HOUR
        self.fixmate_core_seconds = 30.0 * HOUR
        self.sortsam_core_seconds = 11.0 * HOUR
        self.markdup_core_seconds = 14.445 * HOUR
        self.haplotype_caller_core_seconds = 98.0 * HOUR
        self.unified_genotyper_core_seconds = 30.0 * HOUR
        self.recalibrator_core_seconds = 25.0 * HOUR
        self.print_reads_core_seconds = 50.0 * HOUR

        # --- Hadoop-vs-single-node inflation (Fig 6b) ------------------------
        #: Repeated program invocation on partitions costs more than one
        #: whole-dataset call (startup, cache, in-memory working sets).
        self.hadoop_call_ratio = {
            "AddReplRG": 1.18,
            "CleanSam": 1.46,      # 11h03m / 7h33m, paper section 4.4
            "FixMateInfo": 1.25,
            "SortSam": 1.60,
            "MarkDup": 1.45,
        }

        # --- data transformation shares (Fig 6a: 12-49 %) --------------------
        self.transform_fraction = {
            "round2_map": 0.31,    # AddReplRG 12% + CleanSam 49% blended
            "round2_reduce": 0.49,
            "round3_map": 0.33,
            "round3_reduce": 0.40,
            "round4": 0.27,
        }

        # --- shuffle / merge ---------------------------------------------------
        #: Shuffle buffer memory available per reducer for merging.
        self.shuffle_buffer_bytes = 1.0 * GB
        #: Multipass-merge coefficient: extra merge I/O per disk is
        #: k * (bytes/disk)^2 / (reducers_per_disk * buffer)  [Scalla 15].
        self.merge_coefficient = 0.085
        #: Fraction of shuffled bytes that actually touch disk on the
        #: reduce side (Cluster B's 256 GB nodes absorb the rest in the
        #: in-memory shuffle buffers).
        self.shuffle_disk_fraction = 0.6
        #: Fraction of a round's input actually read from disk: each
        #: round consumes the previous round's output, still hot in the
        #: page cache of these large-memory nodes.
        self.input_cache_fraction = 0.3

    # -- helpers --------------------------------------------------------------
    def bwa_mapper_efficiency(self, threads: int,
                              readahead_bytes: int = 64 * 1024 * 1024) -> float:
        """Per-thread efficiency of one streaming Bwa mapper."""
        model = BwaThreadModel(readahead_bytes)
        thread_eff = model.efficiency(threads)
        streaming_eff = 1.0 / (1.0 + self.streaming_thread_penalty * (threads - 1))
        return thread_eff * streaming_eff

    def multipass_merge_extra_bytes(
        self,
        shuffle_bytes_per_disk: float,
        reducers_per_disk: float,
    ) -> float:
        """Extra merge read+write beyond the initial shuffle write.

        Quadratic in data per disk, inversely proportional to reducers
        per disk — the model of Li et al. [15] the paper leans on in
        Appendix B.1.
        """
        if reducers_per_disk <= 0:
            return 0.0
        quadratic = (
            self.merge_coefficient
            * shuffle_bytes_per_disk ** 2
            / (reducers_per_disk * self.shuffle_buffer_bytes)
        )
        # A real merger is bounded by its pass count; cap the extra I/O
        # at 2.5 full rewrites of the data on the disk.
        return min(quadratic, 2.5 * shuffle_bytes_per_disk)

    def program_core_seconds(self, program: str) -> float:
        """Single-node single-thread total for one wrapped program."""
        totals = {
            "AddReplRG": self.addrepl_core_seconds,
            "CleanSam": self.cleansam_core_seconds,
            "FixMateInfo": self.fixmate_core_seconds,
            "SortSam": self.sortsam_core_seconds,
            "MarkDup": self.markdup_core_seconds,
        }
        return totals[program]

    def hadoop_program_core_seconds(self, program: str) -> float:
        """The same program's summed cost across Hadoop partitions."""
        return self.program_core_seconds(program) * self.hadoop_call_ratio[program]
