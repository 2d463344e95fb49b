"""VCF records for variant calls (the pipeline's final output).

Carries the annotations the paper's accuracy study compares (Tables 9
and 10): MQ, DP, FS, AB plus genotype, and the QUAL score used by the
weighted discordance metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import FormatError


class VariantRecord:
    """One variant call: a change from the reference genome."""

    __slots__ = ("chrom", "pos", "ref", "alt", "qual", "genotype", "info")

    def __init__(
        self,
        chrom: str,
        pos: int,
        ref: str,
        alt: str,
        qual: float,
        genotype: str = "0/1",
        info: Optional[Dict[str, float]] = None,
    ):
        if not ref or not alt:
            raise FormatError("REF and ALT must be non-empty")
        self.chrom = chrom
        self.pos = pos
        self.ref = ref
        self.alt = alt
        self.qual = float(qual)
        self.genotype = genotype
        self.info = dict(info) if info else {}

    # -- classification -----------------------------------------------------
    @property
    def is_snp(self) -> bool:
        return len(self.ref) == 1 and len(self.alt) == 1

    @property
    def is_indel(self) -> bool:
        return not self.is_snp

    @property
    def is_heterozygous(self) -> bool:
        allele_a, _, allele_b = self.genotype.replace("|", "/").partition("/")
        return allele_a != allele_b

    @property
    def is_transition(self) -> bool:
        """SNP between two purines or two pyrimidines (A<->G, C<->T)."""
        if not self.is_snp:
            return False
        pair = frozenset((self.ref.upper(), self.alt.upper()))
        return pair in (frozenset("AG"), frozenset("CT"))

    @property
    def is_transversion(self) -> bool:
        return self.is_snp and not self.is_transition

    def site_key(self) -> Tuple[str, int, str, str]:
        """Identity used by the concordance analysis (section 4.5.2)."""
        return (self.chrom, self.pos, self.ref, self.alt)

    # -- (de)serialization ---------------------------------------------------
    def to_line(self) -> str:
        if self.info:
            info = ";".join(f"{k}={self.info[k]:g}" for k in sorted(self.info))
        else:
            info = "."
        return "\t".join(
            [
                self.chrom,
                str(self.pos),
                ".",
                self.ref,
                self.alt,
                f"{self.qual:.2f}",
                "PASS",
                info,
                "GT",
                self.genotype,
            ]
        )

    def line_bytes(self) -> int:
        """Length of the VCF line plus its newline (renders the line:
        calls are few and float-formatted, unlike ``SamRecord``)."""
        return len(self.to_line()) + 1

    @classmethod
    def from_line(cls, line: str) -> "VariantRecord":
        fields = line.rstrip("\n").split("\t")
        if len(fields) < 10:
            raise FormatError(f"VCF line has {len(fields)} fields, expected >= 10")
        info: Dict[str, float] = {}
        if fields[7] != ".":
            for item in fields[7].split(";"):
                key, _, value = item.partition("=")
                info[key] = float(value)
        return cls(
            chrom=fields[0],
            pos=int(fields[1]),
            ref=fields[3],
            alt=fields[4],
            qual=float(fields[5]),
            genotype=fields[9],
            info=info,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VariantRecord):
            return NotImplemented
        return self.to_line() == other.to_line()

    def __hash__(self) -> int:
        return hash(self.to_line())

    def __repr__(self) -> str:
        return (
            f"VariantRecord({self.chrom}:{self.pos} {self.ref}>{self.alt} "
            f"q={self.qual:.1f})"
        )


VCF_HEADER = (
    "##fileformat=VCFv4.2\n"
    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tSAMPLE\n"
)


def write_vcf(path: str, records: Iterable[VariantRecord]) -> None:
    with open(path, "w") as handle:
        handle.write(VCF_HEADER)
        for record in records:
            handle.write(record.to_line())
            handle.write("\n")


def read_vcf(path: str) -> Iterator[VariantRecord]:
    with open(path) as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            yield VariantRecord.from_line(line)


def sort_variants(records: Iterable[VariantRecord]) -> List[VariantRecord]:
    """Sort variants in (chrom, pos, ref, alt) order."""
    return sorted(records, key=lambda r: r.site_key())
