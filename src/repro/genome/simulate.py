"""Synthetic genome and read simulation.

Substitute for the NA12878 64x whole-genome sample the paper processes.
The simulator is built so that the *phenomena* the performance and
accuracy study depends on are present:

* centromere-like tandem repeats and duplicated segments, so some reads
  map ambiguously (multiple equal-score alignments -> aligner random
  tie-breaking -> serial/parallel discordance, Fig 11);
* blacklisted low-complexity regions;
* a diploid donor with SNP and indel truth variants, so precision and
  sensitivity against a gold standard can be computed (Appendix B.3);
* a per-cycle base error model with declining quality towards read ends
  (the base recalibrator's covariate);
* PCR duplicate fragments, so MarkDuplicates has real work to do.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, SimulationError
from repro.formats.fastq import FastqRecord, ReadPair
from repro.formats.vcf import VariantRecord
from repro.genome.reference import BASES, ReferenceGenome, reverse_complement
from repro.genome.regions import GenomicInterval, RegionSet


#: The shortest centromere ``simulate_reference`` writes, in bp.
CENTROMERE_MIN_LENGTH = 200


class ReferenceSimulationConfig:
    """Parameters for building a synthetic reference genome; a contig
    too short for its centromere or a blacklist run is refused."""

    def __init__(
        self,
        contig_lengths: Optional[Dict[str, int]] = None,
        centromere_fraction: float = 0.06,
        centromere_motif_length: int = 7,
        duplicated_segments: int = 2,
        duplicated_segment_length: int = 400,
        blacklist_regions: int = 2,
        blacklist_length: int = 300,
        seed: int = 1,
    ):
        self.contig_lengths = contig_lengths or {
            "chr1": 30_000,
            "chr2": 24_000,
            "chr3": 18_000,
        }
        self.centromere_fraction = centromere_fraction
        self.centromere_motif_length = centromere_motif_length
        self.duplicated_segments = duplicated_segments
        self.duplicated_segment_length = duplicated_segment_length
        self.blacklist_regions = blacklist_regions
        self.blacklist_length = blacklist_length
        self.seed = seed
        for name, length in self.contig_lengths.items():
            centromere = max(CENTROMERE_MIN_LENGTH,
                             int(length * centromere_fraction))
            if length < centromere:
                raise SimulationError(
                    f"contig {name} is {length} bp, shorter than its "
                    f"{centromere} bp centromere")
            if blacklist_regions and length <= blacklist_length:
                raise SimulationError(
                    f"contig {name} is {length} bp; a blacklist run of "
                    f"{blacklist_length} bp needs more than that")


def simulate_reference(config: Optional[ReferenceSimulationConfig] = None) -> ReferenceGenome:
    """Build a synthetic reference with hard-to-map structure."""
    config = config or ReferenceSimulationConfig()
    rng = random.Random(config.seed)
    contigs: Dict[str, str] = {}
    centromeres = RegionSet()
    blacklist = RegionSet()
    duplications = RegionSet()

    for name, length in config.contig_lengths.items():
        bases = [rng.choice(BASES) for _ in range(length)]

        # Centromere: a tandem repeat of a short motif in the middle.
        centro_len = max(CENTROMERE_MIN_LENGTH,
                         int(length * config.centromere_fraction))
        motif = "".join(rng.choice(BASES) for _ in range(config.centromere_motif_length))
        centro_start = length // 2 - centro_len // 2
        for offset in range(centro_len):
            bases[centro_start + offset] = motif[offset % len(motif)]
        centromeres.add(
            GenomicInterval(name, centro_start + 1, centro_start + centro_len + 1, "centromere")
        )

        # Duplicated segments: copy a chunk elsewhere on the contig so
        # reads from either copy align with two equal-score candidates.
        for _ in range(config.duplicated_segments):
            seg_len = config.duplicated_segment_length
            if length < 4 * seg_len:
                break
            src = rng.randrange(0, length // 2 - seg_len)
            dst = rng.randrange(length // 2 + centro_len, length - seg_len)
            bases[dst : dst + seg_len] = bases[src : src + seg_len]
            duplications.add(
                GenomicInterval(name, src + 1, src + seg_len + 1, "dup")
            )
            duplications.add(
                GenomicInterval(name, dst + 1, dst + seg_len + 1, "dup")
            )

        # Blacklisted low-complexity runs (two-letter alphabet).
        for _ in range(config.blacklist_regions):
            bl_len = config.blacklist_length
            start = rng.randrange(0, length - bl_len)
            alphabet = rng.sample(BASES, 2)
            for offset in range(bl_len):
                bases[start + offset] = alphabet[offset % 2]
            blacklist.add(GenomicInterval(name, start + 1, start + bl_len + 1, "blacklist"))

        contigs[name] = "".join(bases)

    return ReferenceGenome(contigs, centromeres=centromeres,
                           blacklist=blacklist, duplications=duplications)


class DonorGenome:
    """A diploid test genome: two haplotypes plus the truth variant set."""

    def __init__(
        self,
        reference: ReferenceGenome,
        haplotypes: Tuple[Dict[str, str], Dict[str, str]],
        truth_variants: List[VariantRecord],
        truth_structural: Optional[List[VariantRecord]] = None,
    ):
        self.reference = reference
        self.haplotypes = haplotypes
        self.truth_variants = list(truth_variants)
        #: Large structural variants (>= 50 bp), kept separate from the
        #: small-variant truth set used to score SNP/indel callers.
        self.truth_structural = list(truth_structural or [])

    def truth_sites(self) -> set:
        return {variant.site_key() for variant in self.truth_variants}


class DonorSimulationConfig:
    """Parameters for mutating a reference into a diploid donor."""

    def __init__(
        self,
        snp_rate: float = 1.0e-3,
        indel_rate: float = 1.0e-4,
        max_indel_length: int = 6,
        het_fraction: float = 0.6,
        structural_deletions: int = 0,
        structural_deletion_length: int = 400,
        seed: int = 2,
    ):
        self.snp_rate = snp_rate
        self.indel_rate = indel_rate
        self.max_indel_length = max_indel_length
        self.het_fraction = het_fraction
        #: Large heterozygous deletions per contig (detected by the
        #: structural variant caller, not the small-variant callers).
        self.structural_deletions = structural_deletions
        self.structural_deletion_length = structural_deletion_length
        self.seed = seed


def simulate_donor(
    reference: ReferenceGenome, config: Optional[DonorSimulationConfig] = None
) -> DonorGenome:
    """Plant SNPs and small indels into two haplotype copies."""
    config = config or DonorSimulationConfig()
    rng = random.Random(config.seed)
    hap_a: Dict[str, str] = {}
    hap_b: Dict[str, str] = {}
    truth: List[VariantRecord] = []

    truth_structural: List[VariantRecord] = []
    for contig, ref_seq in reference.contigs.items():
        edits: List[Tuple[int, str, str, str]] = []  # (pos, ref, alt, genotype)
        length = len(ref_seq)

        # Large heterozygous deletions (structural variants) first, so
        # small edits can avoid their footprints.
        sv_spans: List[Tuple[int, int]] = []
        for _ in range(config.structural_deletions):
            sv_len = config.structural_deletion_length
            if length < 6 * sv_len:
                break
            margin = 600  # keep breakpoints clear of ambiguous mapping
            for _attempt in range(50):
                sv_start = rng.randrange(length // 8, length - 2 * sv_len)
                clear_of_svs = all(
                    sv_start + sv_len + 1 < lo or sv_start > hi + 1
                    for lo, hi in sv_spans
                )
                probe = range(
                    max(1, sv_start - margin),
                    min(length, sv_start + sv_len + margin),
                    50,
                )
                clear_of_hard = not any(
                    reference.in_hard_region(contig, pos) for pos in probe
                )
                if clear_of_svs and clear_of_hard:
                    sv_spans.append((sv_start, sv_start + sv_len))
                    break

        pos = 1
        while pos <= length:
            if any(lo <= pos <= hi for lo, hi in sv_spans):
                pos += 1
                continue
            roll = rng.random()
            if roll < config.snp_rate:
                ref_base = ref_seq[pos - 1]
                alt_base = rng.choice([b for b in BASES if b != ref_base])
                genotype = "0/1" if rng.random() < config.het_fraction else "1/1"
                edits.append((pos, ref_base, alt_base, genotype))
                pos += 1
            elif roll < config.snp_rate + config.indel_rate and pos + config.max_indel_length < length:
                indel_len = rng.randint(1, config.max_indel_length)
                genotype = "0/1" if rng.random() < config.het_fraction else "1/1"
                if rng.random() < 0.5:  # deletion
                    ref_allele = ref_seq[pos - 1 : pos + indel_len]
                    alt_allele = ref_allele[0]
                else:  # insertion
                    ref_allele = ref_seq[pos - 1]
                    alt_allele = ref_allele + "".join(
                        rng.choice(BASES) for _ in range(indel_len)
                    )
                edits.append((pos, ref_allele, alt_allele, genotype))
                pos += len(ref_allele) + 1
            else:
                pos += 1

        for sv_start, sv_end in sv_spans:
            ref_allele = ref_seq[sv_start - 1 : sv_end]
            edits.append((sv_start, ref_allele, ref_allele[0], "0/1"))
        edits.sort(key=lambda edit: edit[0])

        hap_a[contig] = _apply_edits(ref_seq, edits, haplotype=0)
        hap_b[contig] = _apply_edits(ref_seq, edits, haplotype=1)
        for edit_pos, ref_allele, alt_allele, genotype in edits:
            record = VariantRecord(
                contig, edit_pos, ref_allele, alt_allele, qual=100.0,
                genotype=genotype,
            )
            if len(ref_allele) - len(alt_allele) >= 50:
                truth_structural.append(record)
            else:
                truth.append(record)

    return DonorGenome(reference, (hap_a, hap_b), truth, truth_structural)


def _apply_edits(
    ref_seq: str, edits: List[Tuple[int, str, str, str]], haplotype: int
) -> str:
    """Apply edits to one haplotype (het edits go to haplotype 0 only)."""
    parts: List[str] = []
    cursor = 1
    for pos, ref_allele, alt_allele, genotype in edits:
        applies = genotype == "1/1" or haplotype == 0
        if not applies:
            continue
        parts.append(ref_seq[cursor - 1 : pos - 1])
        parts.append(alt_allele)
        cursor = pos + len(ref_allele)
    parts.append(ref_seq[cursor - 1 :])
    return "".join(parts)


class ReadSimulationConfig:
    """Parameters of the paired-end sequencer model; a negative or
    non-finite ``coverage`` is a :class:`SimulationError`."""

    def __init__(
        self,
        read_length: int = 100,
        coverage: float = 20.0,
        insert_mean: float = 300.0,
        insert_sd: float = 30.0,
        base_error_rate: float = 2.0e-3,
        end_error_multiplier: float = 4.0,
        quality_max: int = 40,
        quality_min_at_end: int = 22,
        duplicate_fraction: float = 0.05,
        seed: int = 3,
        sample_name: str = "SYN1",
    ):
        self.read_length = read_length
        self.coverage = coverage
        self.insert_mean = insert_mean
        self.insert_sd = insert_sd
        self.base_error_rate = base_error_rate
        self.end_error_multiplier = end_error_multiplier
        self.quality_max = quality_max
        self.quality_min_at_end = quality_min_at_end
        self.duplicate_fraction = duplicate_fraction
        self.seed = seed
        self.sample_name = sample_name
        if not (math.isfinite(coverage) and coverage >= 0):
            raise SimulationError(
                f"coverage must be a finite number >= 0, got {coverage!r}")


class SimulatedFragment:
    """Ground truth for one sequenced DNA fragment (for test assertions)."""

    __slots__ = ("contig", "start", "insert_size", "haplotype", "is_duplicate", "name")

    def __init__(self, contig: str, start: int, insert_size: int, haplotype: int,
                 is_duplicate: bool, name: str):
        self.contig = contig
        self.start = start
        self.insert_size = insert_size
        self.haplotype = haplotype
        self.is_duplicate = is_duplicate
        self.name = name


def simulate_reads(
    donor: DonorGenome, config: Optional[ReadSimulationConfig] = None
) -> Tuple[List[ReadPair], List[SimulatedFragment]]:
    """Sample paired-end reads with errors and PCR duplicates.

    Returns the read pairs (in name order, as a sequencer would emit
    them) together with the ground-truth fragment list.  A contig must
    fit the shortest fragment (two reads) with a base either side.
    """
    config = config or ReadSimulationConfig()
    rng = random.Random(config.seed)
    read_len = config.read_length
    for contig, sequence in donor.reference.contigs.items():
        if len(sequence) < 2 * read_len + 2:
            raise SimulationError(
                f"contig {contig} is {len(sequence)} bp, too short for a "
                f"{2 * read_len} bp fragment of two {read_len} bp reads")
    pairs: List[ReadPair] = []
    fragments: List[SimulatedFragment] = []
    serial = 0

    contig_names = list(donor.reference.contigs)
    base_fragments: List[Tuple[str, int, int, int]] = []
    for contig in contig_names:
        hap_lengths = [len(h[contig]) for h in donor.haplotypes]
        genome_len = donor.reference.contig_length(contig)
        n_fragments = int(genome_len * config.coverage / (2 * read_len))
        for _ in range(n_fragments):
            haplotype = rng.randrange(2)
            hap_len = hap_lengths[haplotype]
            insert = max(
                2 * read_len,
                int(rng.gauss(config.insert_mean, config.insert_sd)),
            )
            if hap_len <= insert + 1:
                continue
            start = rng.randrange(1, hap_len - insert)
            base_fragments.append((contig, start, insert, haplotype))

    def emit(contig: str, start: int, insert: int, haplotype: int,
             duplicate: bool) -> None:
        nonlocal serial
        hap_seq = donor.haplotypes[haplotype][contig]
        fragment = hap_seq[start - 1 : start - 1 + insert]
        name = f"{config.sample_name}.{serial:07d}"
        serial += 1
        fwd_seq, fwd_qual = _sequence_with_errors(fragment[:read_len], config, rng)
        rev_template = reverse_complement(fragment[-read_len:])
        rev_seq, rev_qual = _sequence_with_errors(rev_template, config, rng)
        pairs.append(
            (
                FastqRecord(f"{name}/1", fwd_seq, fwd_qual),
                FastqRecord(f"{name}/2", rev_seq, rev_qual),
            )
        )
        fragments.append(
            SimulatedFragment(contig, start, insert, haplotype, duplicate, name)
        )

    for contig, start, insert, haplotype in base_fragments:
        emit(contig, start, insert, haplotype, duplicate=False)
        # PCR duplicates: the same physical fragment sequenced again,
        # with independent base errors.
        while rng.random() < config.duplicate_fraction:
            emit(contig, start, insert, haplotype, duplicate=True)

    return pairs, fragments


def _sequence_with_errors(
    template: str, config: ReadSimulationConfig, rng: random.Random
) -> Tuple[str, List[int]]:
    """Apply the per-cycle error model to one read template."""
    if len(template) != config.read_length:
        raise ReproError(
            f"template length {len(template)} != read length {config.read_length}"
        )
    bases: List[str] = []
    quals: List[int] = []
    read_len = config.read_length
    for cycle, true_base in enumerate(template):
        # Error probability grows towards the end of the read.
        position_factor = 1.0 + (config.end_error_multiplier - 1.0) * cycle / read_len
        error_prob = config.base_error_rate * position_factor
        if rng.random() < error_prob:
            base = rng.choice([b for b in BASES if b != true_base])
        else:
            base = true_base
        bases.append(base)
        # Reported quality declines with cycle, with sequencer noise.
        span = config.quality_max - config.quality_min_at_end
        reported = config.quality_max - span * cycle / read_len
        reported += rng.gauss(0.0, 1.5)
        quals.append(max(2, min(int(round(reported)), 41)))
    return "".join(bases), quals


class SomaticSimulationConfig:
    """Parameters for deriving a tumor sample from a donor genome."""

    def __init__(
        self,
        somatic_snvs: int = 8,
        purity: float = 0.8,
        seed: int = 5,
    ):
        #: Somatic point mutations planted per contig (het in tumor cells).
        self.somatic_snvs = somatic_snvs
        #: Fraction of sequenced cells that are tumor (rest are normal
        #: contamination), so the expected allele fraction is purity/2.
        self.purity = purity
        self.seed = seed


class TumorSample:
    """A tumor genome derived from a donor, with its somatic truth set."""

    def __init__(self, donor: DonorGenome,
                 tumor_haplotypes: Tuple[Dict[str, str], Dict[str, str]],
                 somatic_truth: List[VariantRecord], purity: float):
        self.donor = donor
        self.tumor_haplotypes = tumor_haplotypes
        self.somatic_truth = list(somatic_truth)
        self.purity = purity

    def somatic_sites(self) -> set:
        return {v.site_key() for v in self.somatic_truth}


def simulate_tumor(
    donor: DonorGenome, config: Optional[SomaticSimulationConfig] = None
) -> TumorSample:
    """Plant somatic SNVs on the donor's first haplotype.

    Somatic sites avoid germline variants and hard-to-map regions so
    the caller's statistics, not mapping artefacts, decide the outcome.
    """
    config = config or SomaticSimulationConfig()
    rng = random.Random(config.seed)
    reference = donor.reference
    germline_positions = {
        (v.chrom, v.pos) for v in donor.truth_variants + donor.truth_structural
    }
    # Haplotype A carries every donor edit, so reference coordinates
    # shift by the net indel length of all edits upstream of a site.
    hap_a_edits: Dict[str, List[Tuple[int, int, int]]] = {}
    for variant in donor.truth_variants + donor.truth_structural:
        hap_a_edits.setdefault(variant.chrom, []).append(
            (variant.pos, len(variant.ref), len(variant.alt) - len(variant.ref))
        )
    for edits in hap_a_edits.values():
        edits.sort()

    def hap_a_position(contig: str, ref_pos: int) -> Optional[int]:
        """1-based position of ref_pos on haplotype A; None if deleted."""
        shift = 0
        for pos, ref_len, delta in hap_a_edits.get(contig, ()):
            if pos + ref_len - 1 < ref_pos:
                shift += delta
            elif pos < ref_pos:
                return None  # inside an edited (possibly deleted) span
            else:
                break
        return ref_pos + shift

    tumor_a: Dict[str, str] = {}
    somatic_truth: List[VariantRecord] = []
    for contig, hap_seq in donor.haplotypes[0].items():
        bases = list(hap_seq)
        ref_len = reference.contig_length(contig)
        planted = 0
        attempts = 0
        while planted < config.somatic_snvs and attempts < 400:
            attempts += 1
            pos = rng.randrange(1, ref_len)
            if (contig, pos) in germline_positions:
                continue
            if reference.in_hard_region(contig, pos):
                continue
            hap_pos = hap_a_position(contig, pos)
            if hap_pos is None or not 1 <= hap_pos <= len(bases):
                continue
            ref_base = reference.base_at(contig, pos)
            if bases[hap_pos - 1] != ref_base:
                continue
            alt_base = rng.choice([b for b in BASES if b != ref_base])
            bases[hap_pos - 1] = alt_base
            somatic_truth.append(
                VariantRecord(contig, pos, ref_base, alt_base, qual=100.0,
                              genotype="0/1")
            )
            planted += 1
        tumor_a[contig] = "".join(bases)
    return TumorSample(
        donor, (tumor_a, dict(donor.haplotypes[1])), somatic_truth,
        config.purity,
    )


def simulate_tumor_reads(
    tumor: TumorSample, config: Optional[ReadSimulationConfig] = None
) -> Tuple[List[ReadPair], List[SimulatedFragment]]:
    """Sequence the tumor sample at the configured purity.

    Each fragment is drawn from a tumor cell with probability ``purity``
    (tumor haplotypes) and from contaminating normal tissue otherwise
    (donor haplotypes), so somatic sites show the expected sub-0.5
    allele fractions.
    """
    config = config or ReadSimulationConfig(sample_name="TUM1")
    rng = random.Random(config.seed ^ 0x5A5A)
    mixture = _MixtureGenome(tumor, rng)
    return simulate_reads(mixture, config)


class _MixtureGenome:
    """Duck-typed DonorGenome mixing tumor and normal haplotypes."""

    def __init__(self, tumor: TumorSample, rng: random.Random):
        self.reference = tumor.donor.reference
        self.truth_variants = tumor.donor.truth_variants
        self._tumor = tumor
        self._rng = rng
        self.haplotypes = (_MixtureHaplotype(tumor, 0, rng),
                           _MixtureHaplotype(tumor, 1, rng))

    def truth_sites(self) -> set:
        return self._tumor.donor.truth_sites()


class _MixtureHaplotype:
    """Per-fragment choice between tumor and normal haplotype copies."""

    def __init__(self, tumor: TumorSample, which: int, rng: random.Random):
        self._tumor_seq = tumor.tumor_haplotypes[which]
        self._normal_seq = tumor.donor.haplotypes[which]
        self._purity = tumor.purity
        self._rng = rng

    def __getitem__(self, contig: str) -> str:
        if self._rng.random() < self._purity:
            return self._tumor_seq[contig]
        return self._normal_seq[contig]

    def keys(self):
        return self._normal_seq.keys()
