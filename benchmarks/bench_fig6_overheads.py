"""Fig 6(a): overheads of shuffling-intensive jobs.

The fraction of task time spent in data transformation between Hadoop
objects and in-memory BAM files, per map/reduce program stage (paper:
12-49 %).  Measured *functionally* here: the wrapper layer counts real
bytes crossing the boundary on the synthetic dataset, and the
cost-model fractions are printed next to them.  Fig 6(b) is a simulator
figure: ``repro-genomics perf-study fig6b_hadoop_vs_single``.
"""

from benchlib import bench_seconds, report, report_json

from repro.cluster.costs import CostModel


def fig6a_fractions(cost: CostModel):
    return dict(cost.transform_fraction)


def test_fig6a_transform_fractions(benchmark, cost_model, accuracy_study):
    fractions = benchmark(fig6a_fractions, cost_model)
    lines = ["cost-model transform shares (paper Fig 6a band: 12-49%):"]
    for stage, fraction in sorted(fractions.items()):
        lines.append(f"  {stage:<16s}{100 * fraction:>6.1f} %")
        assert 0.10 <= fraction <= 0.50, stage

    # Functional cross-check: real byte counts from the wrapper layer
    # of the accuracy study's parallel run.
    rounds = accuracy_study["parallel"].rounds
    lines.append("")
    lines.append("functional byte accounting (synthetic dataset):")
    for round_name, accounting in sorted(rounds.transform.items()):
        lines.append(
            f"  {round_name:<10s} {accounting.invocations} program calls, "
            f"{accounting.total_bytes / 1e6:.1f} MB copied across the "
            f"Hadoop<->BAM boundary"
        )
        assert accounting.total_bytes > 0
    report("fig6a_transform_fractions", "\n".join(lines))
    report_json(
        "fig6a_transform_fractions",
        wall_seconds=bench_seconds(benchmark),
        params={"stages": len(fractions)},
        counters={
            **{f"transform_fraction.{stage}": round(fraction, 4)
               for stage, fraction in sorted(fractions.items())},
            **{f"transform_bytes.{round_name}": accounting.total_bytes
               for round_name, accounting in sorted(
                   rounds.transform.items())},
        },
    )
