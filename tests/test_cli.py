"""Tests for the command-line interface."""

import os
import shutil

import pytest

from repro.cli import main
from repro.formats.vcf import read_vcf
from repro.mapreduce.executors import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sample"))
    code = main([
        "simulate", "--out", out, "--length", "9000",
        "--coverage", "8", "--seed", "3",
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_files_written(self, sample_dir):
        for name in ("reference.fa", "reads_1.fastq", "reads_2.fastq",
                     "truth.vcf"):
            assert os.path.exists(os.path.join(sample_dir, name))

    def test_truth_vcf_parses(self, sample_dir):
        truth = list(read_vcf(os.path.join(sample_dir, "truth.vcf")))
        assert truth
        assert all(v.chrom in ("chr1", "chr2") for v in truth)

    def test_fastq_pairing(self, sample_dir):
        from repro.formats.fastq import interleave, read_fastq
        pairs = list(interleave(
            read_fastq(os.path.join(sample_dir, "reads_1.fastq")),
            read_fastq(os.path.join(sample_dir, "reads_2.fastq")),
        ))
        assert pairs

    def test_deterministic(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            main(["simulate", "--out", out, "--length", "6000", "--seed", "9"])
        with open(os.path.join(out_a, "reads_1.fastq")) as fa, \
                open(os.path.join(out_b, "reads_1.fastq")) as fb:
            assert fa.read() == fb.read()


class TestRun:
    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_run_writes_vcf(self, sample_dir, tmp_path, mode, capsys):
        vcf_path = str(tmp_path / f"{mode}.vcf")
        code = main([
            "run", "--data", sample_dir, "--mode", mode, "--vcf", vcf_path,
            "--partitions", "4",
        ])
        assert code == 0
        variants = list(read_vcf(vcf_path))
        assert variants
        captured = capsys.readouterr().out
        assert "precision" in captured

    def test_serial_and_parallel_mostly_agree(self, sample_dir, tmp_path):
        serial_vcf = str(tmp_path / "s.vcf")
        parallel_vcf = str(tmp_path / "p.vcf")
        main(["run", "--data", sample_dir, "--mode", "serial",
              "--vcf", serial_vcf])
        main(["run", "--data", sample_dir, "--mode", "parallel",
              "--vcf", parallel_vcf, "--partitions", "4"])
        serial_sites = {v.site_key() for v in read_vcf(serial_vcf)}
        parallel_sites = {v.site_key() for v in read_vcf(parallel_vcf)}
        overlap = len(serial_sites & parallel_sites)
        assert overlap >= 0.8 * max(len(serial_sites), 1)


class TestTrace:
    def test_trace_report_and_chrome_json(self, sample_dir, tmp_path, capsys):
        import json

        trace_path = str(tmp_path / "trace.json")
        jsonl_path = str(tmp_path / "trace.jsonl")
        code = main([
            "trace", "--data", sample_dir, "--partitions", "4",
            "--trace-out", trace_path, "--jsonl", jsonl_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "round:round1" in out and "round:round5" in out
        assert "Ledger:" in out and "unaccounted" in out
        assert "Per-round tasks:" in out
        assert "HDFS:" in out
        with open(trace_path) as handle:
            trace = json.load(handle)
        rounds = [
            e for e in trace["traceEvents"] if e.get("cat") == "round"
        ]
        assert len(rounds) >= 5
        with open(jsonl_path) as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[-1]["type"] == "metrics"

    def test_default_trace_path(self, sample_dir, capsys):
        code = main([
            "trace", "--data", sample_dir, "--partitions", "3",
        ])
        assert code == 0
        assert os.path.exists(os.path.join(sample_dir, "trace.json"))


class TestDiagnose:
    def test_prints_table8(self, sample_dir, capsys):
        code = main(["diagnose", "--data", sample_dir, "--partitions", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Bwa" in out
        assert "Mark Duplicates" in out
        assert "Haplotype Caller" in out


class TestPerfStudy:
    @pytest.mark.parametrize("cluster", ["A", "B"])
    def test_prints_rounds(self, cluster, capsys):
        code = main(["perf-study", f"pipeline_cluster_{cluster.lower()}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Round 5" in out
        assert "TOTAL" in out


class TestChaosCli:
    def test_malformed_event_spec_names_field_and_grammar(
        self, sample_dir, capsys
    ):
        """Satellite regression: a malformed chaos spec exits 2 with an
        error naming the bad field and the accepted grammar — never a
        traceback."""
        code = main([
            "chaos", "--data", sample_dir, "--partitions", "4",
            "--preempt", "round1-alignment:map:two",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: bad --preempt event spec" in err
        assert "TASK must be an integer, got 'two'" in err
        assert "expected --preempt JOB[:WAVE[:TASK]]" in err

    def test_malformed_cold_start_spec(self, sample_dir, capsys):
        code = main([
            "chaos", "--data", sample_dir, "--partitions", "4",
            "--cold-start", "glacial",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "SECONDS must be a number, got 'glacial'" in err
        assert "expected --cold-start SECONDS[@JOB]" in err

    @pytest.mark.parametrize("flag,spec,event", [
        ("--preempt", "round2-cleaning:map:0", "PreemptWorker"),
        ("--cold-start", "0.2", "ColdStart"),
    ])
    def test_pool_chaos_on_serial_is_a_typed_error(
        self, sample_dir, capsys, flag, spec, event
    ):
        """Regression: this used to "pass" having injected nothing."""
        code = main([
            "chaos", "--data", sample_dir, "--partitions", "4",
            "--executor", "serial", flag, spec,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: chaos event {event}" in captured.err
        assert "'serial'" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("flags,event,name,near", [
        (["--delay", "x:1"], "DelayTask", "x", "round"),
        (["--executor", "pool", "--preempt", "nope:map:0"], "PreemptWorker",
         "nope", "round"),
        (["--zombie", "round4-sort-r-0000@1"], "ZombieAttempt",
         "round4-sort-r-0000", "round4-sort-r-00000"),
    ], ids=["delay", "preempt", "zombie"])
    def test_an_event_aimed_at_no_task_or_job_exits_2(
        self, sample_dir, capsys, flags, event, name, near
    ):
        """Regression: each of these injected nothing and still passed."""
        code = main(["chaos", "--data", sample_dir, "--partitions", "4",
                     *flags])
        captured = capsys.readouterr()
        assert code == 2, captured.out
        assert f"error: chaos event {event} names" in captured.err
        assert repr(name) in captured.err and near in captured.err
        assert "GATE" not in captured.out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_task_timeout_exits_2(self, sample_dir, capsys, value):
        """Regression: ``nan`` switched hung-task detection off and passed."""
        code = main(["chaos", "--data", sample_dir, "--task-timeout", value])
        assert code == 2
        assert "task_timeout must be None or finite" in capsys.readouterr().err

    @needs_fork
    def test_preempt_and_cold_start_gate_passes(
        self, sample_dir, tmp_path, capsys
    ):
        """The acceptance drill: preemption + cold-start chaos under
        the pool executor must be absorbed — gate passes, workers
        respawn, a fenced backup commits."""
        import json

        report_path = str(tmp_path / "chaos.json")
        code = main([
            "chaos", "--data", sample_dir, "--partitions", "4",
            "--executor", "pool", "--max-workers", "2",
            "--preempt", "round2-cleaning:map:0",
            "--cold-start", "0.2@round4-sort",
            "--report-out", report_path,
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "GATE PASSED" in out
        assert "Fault counters:" in out
        assert "pool.preemptions" in out
        assert "pool.cold_starts" in out
        with open(report_path) as handle:
            payload = json.load(handle)
        assert payload["gate"]["equivalent"] is True
        counters = payload["fault_counters"]
        assert counters["pool.preemptions"] == 1
        assert counters["pool.workers_respawned"] >= 1
        assert counters["pool.cold_starts"] >= 1
        absorption = payload["absorption"]
        assert sum(s["backups"] for s in absorption.values()) >= 1


class TestMissingSample:
    @pytest.mark.parametrize("missing", ["reference.fa", "reads_1.fastq",
                                         "reads_2.fastq"])
    def test_a_sample_missing_a_file_exits_2(
        self, sample_dir, tmp_path, capsys, missing
    ):
        for name in ("reference.fa", "reads_1.fastq", "reads_2.fastq"):
            if name != missing:
                shutil.copy(os.path.join(sample_dir, name), tmp_path)
        code = main(["run", "--data", str(tmp_path), "--mode", "serial"])
        assert code == 2
        err = capsys.readouterr().err
        assert os.path.join(str(tmp_path), missing) in err
        assert "simulate --out" in err

    @pytest.mark.parametrize("command", ["run", "trace", "diagnose", "chaos"])
    def test_no_sample_directory_exits_2(self, tmp_path, capsys, command):
        code = main([command, "--data", str(tmp_path / "nonexistent")])
        assert code == 2
        captured = capsys.readouterr()
        assert "reference.fa" in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestElasticTrace:
    @needs_fork
    def test_trace_prints_cost_model(self, sample_dir, capsys):
        code = main([
            "trace", "--data", sample_dir, "--partitions", "3",
            "--executor", "pool", "--max-workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Worker cost:" in out
        # The scaling columns appear only when the pool scaled, which is
        # up to the run's timing: tests/test_report_model.py pins them
        # on synthetic counters.
        [header] = [line for line in out.splitlines()
                    if line.lstrip().startswith("workers")]
        assert "billed" in header and "static envelope" in header


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_missing_required_arg(self):
        with pytest.raises(SystemExit):
            main(["simulate"])

    @pytest.mark.parametrize("kind", ["elastic", "process", "thread"])
    def test_removed_executor_kinds_rejected(self, sample_dir, capsys, kind):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--data", sample_dir, "--executor", kind])
        assert exit_info.value.code == 2
        assert "{serial,pool}" in capsys.readouterr().err

    def test_min_workers_above_max_rejected(self, sample_dir, capsys):
        """There is no pool floor to set: the flag itself is refused."""
        with pytest.raises(SystemExit) as exit_info:
            main([
                "run", "--data", sample_dir, "--executor", "pool",
                "--max-workers", "2", "--min-workers", "4",
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --min-workers" in \
            capsys.readouterr().err
