"""Command-line interface for the Gesall reproduction.

Subcommands::

    repro-genomics simulate   --out DIR [--length N] [--coverage X]
    repro-genomics run        --data DIR --mode serial|parallel [--vcf F]
    repro-genomics trace      --data DIR [--trace-out F] [--jsonl F] [--json F]
                              [--sample-interval S]
    repro-genomics compare    BASELINE CANDIDATE   (FILE or ROWS.jsonl@COMMIT)
    repro-genomics diagnose   --data DIR
    repro-genomics chaos      --data DIR [--<event> SPEC ...] (chaos --help)
    repro-genomics perf-study [FIGURE ...|all] [--out DIR]
    repro-genomics serve      --state-dir DIR --socket PATH [--tenant N:W]
    repro-genomics submit     --socket PATH --tenant T (--text S|--data DIR)
    repro-genomics jobs       --socket PATH [--json]
    repro-genomics cancel     --socket PATH JOB_ID

Each subcommand's ``--help`` says what it does; README "Quickstart",
"Observability" and "Job service" show them in use.  Exit codes: 0 ok,
1 a gate failed (``chaos``, ``crashfuzz``, a ``compare`` regression),
2 a typed error, 3 an over-quota ``submit`` or an unresolved
``compare`` cell.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from repro.align.index import ReferenceIndex
from repro.api import PipelineSpec, run_pipeline, run_serial_pipeline
from repro.chaos.plan import (
    EVENT_TYPES,
    FaultPlan,
    KillDriver,
    KillServer,
    parse_event,
)
from repro.diagnostics.toolkit import ErrorDiagnosisToolkit
from repro.errors import (
    AdmissionError,
    DriverKilledError,
    ReproError,
    ServerError,
)
from repro.formats.fastq import read_sample, write_fastq
from repro.formats.vcf import read_vcf, write_vcf
from repro.genome.reference import write_fasta
from repro.genome.simulate import (
    ReadSimulationConfig,
    ReferenceSimulationConfig,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)
from repro.io.policy import IoPolicy
from repro.mapreduce.policy import EXECUTOR_KINDS, ExecutionPolicy
from repro.metrics.accuracy import precision_sensitivity
from repro.obs.analysis import tenant_summary
from repro.obs.compare import (
    compare_runs,
    comparison_table,
    load_contract,
    load_run,
)
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.figures import FIGURES, figure_record, run_figure
from repro.obs.recorder import ObsConfig
from repro.obs.report import (
    Table,
    build_report,
    chaos_tables,
    diagnosis_table,
    jobs_tables,
    render_html,
    render_text,
    report_dict,
    table_of,
    tasks_table,
    tenants_table,
)
from repro.shuffle.codec import CODEC_NAMES
from repro.shuffle.config import ShuffleConfig


#: The events ``chaos`` takes as flags: the whole table except the
#: server plane (``serve --kill-server`` is that one's flag).
_CHAOS_FLAG_EVENTS = tuple(e for e in EVENT_TYPES if e.plane != "server")


def _first_doc_line(event) -> str:
    """An event flag's ``--help`` text: its class docstring's first line."""
    return event.__doc__.strip().splitlines()[0].rstrip(".")


def _execution_parent() -> argparse.ArgumentParser:
    """The one definition of the execution flags.

    Every pipeline-running subcommand (run / trace / diagnose / chaos)
    inherits this parent parser, so the flag set cannot drift between
    subcommands; :func:`_spec_from_args` is the only reader, so every
    flag is guaranteed to land in the :class:`PipelineSpec`.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument("--executor", choices=EXECUTOR_KINDS,
                       default="serial",
                       help="how MR tasks run (default: serial; pool "
                            "forks workers per job and resizes them "
                            "between waves)")
    group.add_argument("--max-workers", type=int, default=None,
                       help="pool worker slots; each wave runs on "
                            "min(slots, its tasks)")
    group.add_argument("--task-retries", type=int, default=0,
                       help="retries per failed task (default: 0)")
    group.add_argument("--shuffle-codec", choices=CODEC_NAMES,
                       default="raw",
                       help="segment compression for the shuffle byte "
                            "plane (default: raw)")
    group.add_argument("--partitions", type=int, default=8,
                       help="FASTQ logical partitions (default: 8)")
    group.add_argument("--spill-dir", action="append", default=[],
                       metavar="DIR", dest="spill_dirs",
                       help="spill directory for map runs and shuffle "
                            "segment replicas; repeat the flag to add "
                            "fallback directories used when earlier "
                            "ones fill up (ENOSPC degraded mode)")
    return parent


def _spec_from_args(args, reference, **overrides) -> PipelineSpec:
    """Materialise the frozen pipeline spec the execution flags describe."""
    fields = dict(
        reference=reference,
        index=ReferenceIndex(reference),
        num_fastq_partitions=args.partitions,
        policy=ExecutionPolicy(
            executor=args.executor,
            max_workers=args.max_workers,
            task_retries=args.task_retries,
            io=(IoPolicy(spill_dirs=tuple(args.spill_dirs))
                if args.spill_dirs else None),
        ),
        shuffle=ShuffleConfig(codec=args.shuffle_codec),
    )
    fields.update(overrides)
    return PipelineSpec(**fields)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-genomics",
        description="Gesall reproduction: parallel WGS analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    execution = _execution_parent()

    sim = sub.add_parser("simulate", help="generate a synthetic sample")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--length", type=int, default=20_000,
                     help="total genome length (split over 2 contigs)")
    sim.add_argument("--coverage", type=float, default=15.0)
    sim.add_argument("--seed", type=int, default=1)

    run = sub.add_parser("run", parents=[execution],
                         help="run a pipeline over a sample dir")
    run.add_argument("--data", required=True, help="simulate output dir")
    run.add_argument("--mode", choices=("serial", "parallel"),
                     default="parallel")
    run.add_argument("--vcf", default=None, help="output VCF path")

    trace = sub.add_parser(
        "trace", parents=[execution],
        help="run the parallel pipeline traced; print the report and "
             "write DATA/report.html and trace.json",
    )
    trace.add_argument("--data", required=True, help="simulate output dir")
    trace.add_argument("--trace-out", default=None,
                       help="Chrome trace path (default DATA/trace.json)")
    trace.add_argument("--jsonl", default=None,
                       help="also write a JSONL span dump to this path")
    trace.add_argument("--json", dest="json_out", default=None,
                       help="also write the report's tables as JSON here")
    trace.add_argument("--sample-interval", type=float, default=0.0,
                       help="worker resource sampling interval in "
                            "seconds (0 = off)")

    compare = sub.add_parser(
        "compare",
        help="judge two contract-benchmark runs by the rule and bounds of "
             "this checkout's BENCHMARK.json; exit 1 regression, 3 unresolved",
    )
    compare.add_argument("baseline", help="a run.py --out record, or "
                         "TRAJECTORY.jsonl@COMMIT")
    compare.add_argument("candidate", help="likewise")
    compare.add_argument("--json", dest="json_out", default=None,
                         help="also write the comparison as JSON here")

    diag = sub.add_parser("diagnose", parents=[execution],
                          help="run both pipelines and compare (Table 8)")
    diag.add_argument("--data", required=True)

    chaos = sub.add_parser(
        "chaos", parents=[execution],
        help="run the pipeline under a fault plan; gate on equivalence",
    )
    chaos.add_argument("--data", required=True, help="simulate output dir")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault plan seed (picks the demo victim node)")
    chaos.add_argument("--task-timeout", type=float, default=30.0,
                       help="hung-task timeout in charged seconds (the "
                            "demo plan's 60s delay trips it; real tasks "
                            "on laptop-scale samples never do)")
    for event in _CHAOS_FLAG_EVENTS:
        chaos.add_argument(f"--{event.flag}", action="append", default=[],
                           metavar=event.grammar,
                           help=_first_doc_line(event))
    chaos.add_argument("--checkpoint-dir", default=None,
                       help="checkpoint + WAL directory for --kill-driver "
                            "(default DATA/chaos-checkpoint)")
    chaos.add_argument("--trace-out", default=None,
                       help="write the chaos run's Chrome trace here")
    chaos.add_argument("--report-out", default=None,
                       help="write a JSON chaos report here")

    perf = sub.add_parser(
        "perf-study",
        help="print the paper figures (simulated, functional, measured) "
             "and check their claims; exit 1 if a claim fails",
    )
    perf.add_argument("figures", nargs="*", metavar="FIGURE",
                      help="figures to print (default: all): "
                           + ", ".join(FIGURES))
    perf.add_argument("--out", default=None, metavar="DIR",
                      help="also write each figure as DIR/BENCH_<name>.json")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant job server over a unix socket",
    )
    serve.add_argument("--state-dir", required=True,
                       help="durable state directory (queue journal + "
                            "per-job checkpoints); reopening it resumes "
                            "the queue")
    serve.add_argument("--socket", required=True,
                       help="unix socket path to listen on")
    serve.add_argument("--slots", type=int, default=1,
                       help="shared executor budget in slots (default 1)")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="NAME:WEIGHT[:MIN_SHARE]",
                       help="register a tenant with a fair-share weight "
                            "(repeatable)")
    serve.add_argument("--tenant-max-queued", type=int, default=None,
                       metavar="N",
                       help="per-tenant ceiling on live (pending+running) "
                            "jobs")
    serve.add_argument("--tenant-budget", type=float, default=None,
                       metavar="UNITS",
                       help="per-tenant lifetime cost-unit budget")
    serve.add_argument("--max-queued-total", type=int, default=None,
                       metavar="N",
                       help="server-wide live-job backstop")
    serve.add_argument("--hold", action="store_true",
                       help="queue submissions without dispatching until "
                            "a 'start' op arrives (deterministic batch "
                            "scheduling)")
    serve.add_argument(f"--{KillServer.flag}", default=None,
                       metavar=KillServer.grammar,
                       help=_first_doc_line(KillServer)
                            + " (chaos: exit 7); restart without this "
                              "flag to resume the queue")
    serve.add_argument("--trace-out", default=None,
                       help="write a Chrome trace on clean shutdown")

    submit = sub.add_parser(
        "submit", help="submit one job to a running server",
    )
    submit.add_argument("--socket", required=True)
    submit.add_argument("--tenant", required=True)
    submit.add_argument("--cost", type=float, default=1.0,
                        help="declared cost units charged at dispatch "
                             "(default 1)")
    submit.add_argument("--demand", type=int, default=1,
                        help="executor slots the job occupies (default 1)")
    submit.add_argument("--job-id", default=None,
                        help="explicit job id (default server-assigned)")
    what = submit.add_mutually_exclusive_group(required=True)
    what.add_argument("--text", default=None,
                      help="wordcount job over this literal text "
                           "(lines split on newlines)")
    what.add_argument("--lines", default=None, metavar="FILE",
                      help="wordcount job over this file's lines")
    what.add_argument("--data", default=None, metavar="DIR",
                      help="five-round pipeline job over a simulate "
                           "output dir (checkpointed server-side)")
    submit.add_argument("--partitions", type=int, default=2)
    submit.add_argument("--reducers", type=int, default=2)

    jobs = sub.add_parser(
        "jobs", help="list a running server's queue and tenant shares",
    )
    jobs.add_argument("--socket", required=True)
    jobs.add_argument("--json", dest="json_out", action="store_true",
                      help="print the full snapshot as JSON")
    jobs.add_argument("--start", action="store_true",
                      help="release a --hold server's dispatcher and exit "
                           "without listing (unless --wait / --shutdown)")
    jobs.add_argument("--wait", action="store_true",
                      help="block until the queue is idle before "
                           "printing")
    jobs.add_argument("--shutdown", action="store_true",
                      help="cleanly stop the server after printing")

    cancel = sub.add_parser(
        "cancel", help="cancel a pending job on a running server",
    )
    cancel.add_argument("--socket", required=True)
    cancel.add_argument("job_id")

    crashfuzz = sub.add_parser(
        "crashfuzz",
        help="crash-consistency fuzz gate over the durable components",
        description="Kill every durable component at every frame "
                    "boundary and at seeded intra-frame byte offsets, "
                    "then assert its recovery converges on the "
                    "uninterrupted run.",
    )
    crashfuzz.add_argument("--seed", type=int, default=0,
                           help="seed for the intra-frame cut offsets "
                                "(default: 0)")
    crashfuzz.add_argument("--component", action="append", default=[],
                           metavar="NAME", dest="components",
                           help="fuzz only this component (repeatable); "
                                "default: all of framelog, jobwal, "
                                "queue, checkpoint, segments")
    crashfuzz.add_argument("--work-dir", default=None,
                           help="scratch directory for materialized "
                                "crash states (default: a temp dir)")
    crashfuzz.add_argument("--json", dest="json_out", default=None,
                           metavar="FILE",
                           help="also write the per-component reports "
                                "as JSON")
    return parser


def _cmd_simulate(args) -> int:
    half = args.length // 2
    reference_config = ReferenceSimulationConfig(
        contig_lengths={"chr1": args.length - half, "chr2": half},
        seed=args.seed,
    )
    reads_config = ReadSimulationConfig(coverage=args.coverage,
                                        seed=args.seed + 1)
    os.makedirs(args.out, exist_ok=True)
    reference = simulate_reference(reference_config)
    donor = simulate_donor(reference)
    pairs, _ = simulate_reads(donor, reads_config)
    write_fasta(os.path.join(args.out, "reference.fa"), reference)
    write_fastq(os.path.join(args.out, "reads_1.fastq"),
                (fwd for fwd, _ in pairs))
    write_fastq(os.path.join(args.out, "reads_2.fastq"),
                (rev for _, rev in pairs))
    write_vcf(os.path.join(args.out, "truth.vcf"), donor.truth_variants)
    print(f"wrote {len(pairs)} read pairs, "
          f"{len(donor.truth_variants)} truth variants to {args.out}")
    return 0


def _cmd_run(args) -> int:
    reference, pairs = read_sample(args.data)
    spec = _spec_from_args(args, reference)
    if args.mode == "serial":
        result = run_serial_pipeline(spec, pairs)
    else:
        result = run_pipeline(spec, pairs)
    vcf_path = args.vcf or os.path.join(args.data, f"{args.mode}.vcf")
    write_vcf(vcf_path, result.variants)
    print(f"{args.mode} pipeline: {len(result.alignment)} alignments, "
          f"{len(result.variants)} variants -> {vcf_path}")
    truth_path = os.path.join(args.data, "truth.vcf")
    if os.path.exists(truth_path):
        truth = {v.site_key() for v in read_vcf(truth_path)}
        precision, sensitivity = precision_sensitivity(result.variants, truth)
        print(f"vs truth: precision {precision:.3f}, "
              f"sensitivity {sensitivity:.3f}")
    return 0


def _write_json(path: str, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def _cmd_trace(args) -> int:
    """The one traced run: the report as text and as DATA/report.html,
    the Chrome trace, and the JSONL / JSON dumps when asked."""
    obs = ObsConfig(enabled=True, sample_interval=args.sample_interval)
    reference, pairs = read_sample(args.data)
    result = run_pipeline(_spec_from_args(args, reference, obs=obs), pairs)
    recorder = result.recorder
    tables = build_report(
        recorder, result.rounds.results,
        {"executor": args.executor, "partitions": args.partitions,
         "read pairs": len(pairs), "shuffle codec": args.shuffle_codec,
         "sample interval s": args.sample_interval},
    )
    print(render_text(tables))
    print()
    trace_path = args.trace_out or os.path.join(args.data, "trace.json")
    write_chrome_trace(recorder, trace_path)
    print(f"wrote {trace_path} ({len(recorder.spans())} spans); load it in "
          "chrome://tracing or https://ui.perfetto.dev")
    html_path = os.path.join(args.data, "report.html")
    title = ("repro performance report — "
             + os.path.basename(args.data.rstrip("/")))
    with open(html_path, "w") as handle:
        handle.write(render_html(tables, title, recorder) + "\n")
    print(f"wrote {html_path}")
    if args.jsonl:
        write_jsonl(recorder, args.jsonl)
        print(f"wrote {args.jsonl}")
    if args.json_out:
        _write_json(args.json_out, report_dict(tables))
    return 0


def _cmd_compare(args) -> int:
    contract = load_contract()
    result = compare_runs(load_run(args.baseline, contract),
                          load_run(args.candidate, contract), contract)
    print(render_text([comparison_table(result)]))
    if args.json_out:
        _write_json(args.json_out, result)
    return result["exit"]


def _cmd_diagnose(args) -> int:
    reference, pairs = read_sample(args.data)
    spec = _spec_from_args(args, reference)
    serial = run_serial_pipeline(spec, pairs)
    parallel = run_pipeline(spec, pairs)
    report = ErrorDiagnosisToolkit(reference).diagnose(serial, parallel)
    print(render_text([diagnosis_table(report)]))
    return 0


def _cmd_chaos(args) -> int:
    """Run the pipeline under a fault plan and gate output equivalence.

    Three runs over the same sample: the serial reference program (for
    the Table 8 report), a clean parallel run (serial executor, no
    faults — the equivalence baseline), and the chaos run under the
    fault plan.  Exit code 0 only when the chaos run's variants are
    identical to the clean parallel run's: every injected failure was
    absorbed by replication, retries and timeouts without changing a
    single call.
    """
    reference, pairs = read_sample(args.data)
    nodes = [f"node{i:02d}" for i in range(4)]

    events = [
        parse_event(spec, event.flag)
        for event in _CHAOS_FLAG_EVENTS
        for spec in getattr(args, event.flag.replace("-", "_"))
    ]
    if events:
        plan = FaultPlan(seed=args.seed, events=tuple(events))
    else:
        plan = FaultPlan.demo(args.seed, nodes)
    print(plan.describe())
    print()

    base_spec = _spec_from_args(args, reference, nodes=tuple(nodes))
    chaos_policy = dataclasses.replace(
        base_spec.policy,
        task_retries=max(2, args.task_retries),
        task_timeout=args.task_timeout,
        fault_plan=plan,
    )

    def build(policy, traced=True, checkpoint_dir=None):
        return dataclasses.replace(
            base_spec, policy=policy, checkpoint_dir=checkpoint_dir,
            obs=ObsConfig(enabled=True) if traced else None,
        )

    clean = run_pipeline(build(ExecutionPolicy.serial(), traced=False), pairs)
    jobs = clean.rounds.results.values()
    plan.check_addresses(
        {task.task_id for job in jobs for task in job.history.tasks},
        {job.job_name for job in jobs},
    )
    checkpoint_dir = resume_info = None
    if any(isinstance(e, KillDriver) for e in plan.events):
        # Crash-recovery drill: run with checkpoints + WAL until the
        # plan kills the driver, then resume (KillDriver stripped — the
        # new driver is not the plan's target) and replay journaled
        # commits instead of re-running the interrupted round whole.
        checkpoint_dir = args.checkpoint_dir or os.path.join(
            args.data, "chaos-checkpoint"
        )
        resume_info = {"driver_kills": 0}
        try:
            run_pipeline(
                build(chaos_policy, checkpoint_dir=checkpoint_dir), pairs
            )
        except DriverKilledError as exc:
            resume_info["driver_kills"] = 1
            print(f"driver killed: {exc}")
            print()
        surviving = tuple(
            e for e in plan.events if not isinstance(e, KillDriver)
        )
        chaos_policy = dataclasses.replace(
            chaos_policy,
            fault_plan=(
                FaultPlan(seed=plan.seed, events=surviving)
                if surviving else None
            ),
        )
    chaos_run = run_pipeline(
        build(chaos_policy, checkpoint_dir=checkpoint_dir), pairs,
        resume=resume_info is not None,
    )
    if resume_info is not None:
        resume_info.update(
            resumed_rounds=list(chaos_run.resumed_rounds),
            recovered_tasks=dict(chaos_run.recovered_tasks),
        )

    serial = run_serial_pipeline(base_spec, pairs)
    report = ErrorDiagnosisToolkit(reference).diagnose(serial, chaos_run)
    gate = ErrorDiagnosisToolkit.equivalence_gate(clean, chaos_run)
    clean_lines = [v.to_line() for v in clean.variants]
    chaos_lines = [v.to_line() for v in chaos_run.variants]
    ok = gate.weighted_d_count == 0 and clean_lines == chaos_lines

    results = chaos_run.rounds.results
    events = list(chaos_run.chaos_events) + [
        {"round": key, **event}
        for key, job_result in results.items()
        for event in job_result.history.events_of("segment_corrupted")
    ]
    counters = chaos_run.recorder.metrics.as_dict()["counters"]
    if resume_info is not None:
        resume_info["wal_tasks_skipped"] = counters.get(
            "wal.tasks_skipped", 0
        )
        print(f"crash recovery: driver killed "
              f"{resume_info['driver_kills']} time(s); resumed rounds "
              f"{resume_info['resumed_rounds'] or ['(none)']}; replayed "
              f"{resume_info['wal_tasks_skipped']} journaled task "
              "commit(s) from the WAL")
        print()
    table8 = diagnosis_table(report, "Table 8 (serial program vs chaos run)")
    absorption = tasks_table(results)
    applied, fault_counters, *recovery = chaos_tables(
        events, counters, resume_info and resume_info["recovered_tasks"]
    )
    print(render_text(
        [table8, applied, absorption, fault_counters, *recovery]
    ))

    if args.trace_out:
        write_chrome_trace(chaos_run.recorder, args.trace_out)
        print(f"\nwrote {args.trace_out}")
    if args.report_out:
        _write_json(args.report_out, {
            "plan": {"seed": plan.seed, "events": plan.as_dicts()},
            "executor": args.executor,
            "chaos_events": events,
            "fault_counters": dict(fault_counters.rows),
            "absorption": {
                label: job.history.summary() for label, job in results.items()
            },
            "table8": table8.records(),
            "gate": {
                "weighted_d_count": gate.weighted_d_count,
                "variants_clean": len(clean_lines),
                "variants_chaos": len(chaos_lines),
                "equivalent": ok,
            },
            "resume": resume_info,
        })

    print()
    if ok:
        print(f"GATE PASSED: chaos run equivalent to clean run "
              f"({len(chaos_lines)} variants, weighted D_count 0)")
        return 0
    print(f"GATE FAILED: chaos run diverged "
          f"(weighted D_count {gate.weighted_d_count}, "
          f"{len(gate.only_first)} clean-only / "
          f"{len(gate.only_second)} chaos-only variants)")
    return 1


def _cmd_perf_study(args) -> int:
    failed = []
    for name in [name for name in args.figures if name != "all"] or FIGURES:
        tables, claims = run_figure(name)
        print(f"=== {name} ===")
        print(render_text(tables + [Table(
            "Claims", (("claim", ""), ("holds", "")), list(claims.items()),
            "" if claims else "(none: the figure is printed for reading)")]))
        print()
        failed += [f"{name}: {claim}" for claim, ok in claims.items() if not ok]
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_json(os.path.join(args.out, f"BENCH_{name}.json"),
                        figure_record(name, tables, claims))
    for claim in failed:
        print(f"CLAIM FAILED: {claim}")
    return 1 if failed else 0


def _parse_tenant_flag(spec: str):
    """``NAME:WEIGHT[:MIN_SHARE]`` → the pieces, with typed errors."""
    parts = spec.split(":")
    if not parts[0] or len(parts) > 3:
        raise ServerError(
            f"bad --tenant spec {spec!r}; expected NAME:WEIGHT[:MIN_SHARE]"
        )
    try:
        weight = float(parts[1]) if len(parts) > 1 else 1.0
        min_share = int(parts[2]) if len(parts) > 2 else 0
    except ValueError as exc:
        raise ServerError(
            f"bad --tenant spec {spec!r}: {exc}; "
            "expected NAME:WEIGHT[:MIN_SHARE]"
        ) from exc
    return parts[0], weight, min_share


def _cmd_serve(args) -> int:
    from repro.server import JobServer, ServerConfig, TenantPolicy
    from repro.server.daemon import JobServerDaemon

    tenants = tuple(
        TenantPolicy(
            name=name, weight=weight, min_share=min_share,
            max_queued=args.tenant_max_queued,
            max_cost_units=args.tenant_budget,
        )
        for name, weight, min_share in (
            _parse_tenant_flag(spec) for spec in args.tenant
        )
    )
    plan = None
    if args.kill_server is not None:
        plan = FaultPlan(
            events=(parse_event(args.kill_server, KillServer.flag),)
        )
    server = JobServer(ServerConfig(
        state_dir=args.state_dir,
        total_slots=args.slots,
        tenants=tenants,
        default_max_queued=args.tenant_max_queued,
        default_max_cost_units=args.tenant_budget,
        max_queued_total=args.max_queued_total,
        hold=args.hold,
        fault_plan=plan,
    ))
    daemon = JobServerDaemon(server, args.socket)
    readmitted = server.open()
    counts = server.queue.counts()
    print(f"job server on {args.socket}: {args.slots} slot(s), "
          f"{len(tenants)} registered tenant(s), "
          f"{counts['pending']} pending"
          + (f" ({len(readmitted)} re-admitted after crash)"
             if readmitted else ""),
          flush=True)
    daemon.serve_forever()
    summary = tenant_summary(server.counters())
    if summary:
        print(render_text([tenants_table(summary)]))
    if args.trace_out:
        write_chrome_trace(server.recorder, args.trace_out)
        print(f"wrote {args.trace_out}")
    return 0


def _wordcount_lines(args) -> List[str]:
    if args.text is not None:
        lines = [line for line in args.text.splitlines() if line.strip()]
        return lines or [args.text]
    with open(args.lines) as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def _cmd_submit(args) -> int:
    from repro.server.client import JobClient
    from repro.server.protocol import wordcount_payload

    if args.data is not None:
        payload = {
            "type": "pipeline", "data": args.data,
            "partitions": args.partitions, "reducers": args.reducers,
        }
    else:
        payload = wordcount_payload(
            _wordcount_lines(args), partitions=args.partitions,
            reducers=args.reducers,
        )
    client = JobClient(args.socket)
    try:
        job_id = client.submit(
            args.tenant, payload, cost=args.cost, demand=args.demand,
            job_id=args.job_id,
        )
    except AdmissionError as exc:
        print(f"rejected ({exc.reason}): {exc}", file=sys.stderr)
        return 3
    print(job_id)
    return 0


def _cmd_jobs(args) -> int:
    from repro.server.client import JobClient

    client = JobClient(args.socket)
    if args.start:
        # The server replies before it dispatches anything, so a chaos
        # kill on that dispatch never races a listing request.
        client.start_dispatch()
        if not (args.wait or args.shutdown):
            return 0
    if args.wait:
        client.wait_idle()
    snapshot = client.jobs()
    stats = client.stats()
    if args.json_out:
        snapshot["tenant_stats"] = stats["tenants"]
        snapshot["counters"] = stats["counters"]
        print(json.dumps(snapshot, indent=1, sort_keys=True))
    else:
        print(render_text(jobs_tables(snapshot, stats["tenants"])))
        counts = snapshot["counts"]
        slots = snapshot["slots"]
        print()
        print(f"slots {slots['used']}/{slots['total']} used; "
              + ", ".join(f"{counts[s]} {s}" for s in
                          ("pending", "running", "done", "failed",
                           "cancelled")))
    if args.shutdown:
        client.shutdown()
    return 0


def _cmd_cancel(args) -> int:
    from repro.server.client import JobClient

    state = JobClient(args.socket).cancel(args.job_id)
    print(f"{args.job_id}: {state}")
    return 0 if state == "cancelled" else 1


def _cmd_crashfuzz(args) -> int:
    """Run the crash-consistency gate; exit 0 only when every durable
    component recovers convergently from every materialized kill."""
    import tempfile

    from repro.io.crashfuzz import run_fuzz_gate

    components = args.components or None

    def gate(base_dir: str):
        return run_fuzz_gate(base_dir, seed=args.seed,
                             components=components)

    if args.work_dir:
        os.makedirs(args.work_dir, exist_ok=True)
        reports = gate(args.work_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="crashfuzz-") as base:
            reports = gate(base)

    print(render_text([table_of(
        f"crash-consistency fuzz (seed {args.seed})",
        "component|points:n|boundary:n=boundary_points"
        "|intra:n=intra_points|verdict",
        ({"component": name, **report.as_dict(),
          "verdict": "ok" if report.ok
          else f"{len(report.failures)} FAILED: "
               + "; ".join(map(str, report.failures[:5]))}
         for name, report in reports.items()),
    )]))
    failed = not all(report.ok for report in reports.values())
    if args.json_out:
        _write_json(args.json_out, {name: report.as_dict()
                                    for name, report in reports.items()})
    print()
    if failed:
        print("GATE FAILED: a durable component diverged after a "
              "simulated crash")
        return 1
    total = sum(report.points for report in reports.values())
    print(f"GATE PASSED: {total} crash points recovered convergently "
          f"across {len(reports)} component(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "compare": _cmd_compare,
        "diagnose": _cmd_diagnose,
        "chaos": _cmd_chaos,
        "perf-study": _cmd_perf_study,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "cancel": _cmd_cancel,
        "crashfuzz": _cmd_crashfuzz,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
