"""``repro-genomics compare``: the contract benchmark's rule over its own
records — synthetic ``run.py --out`` files and ``TRAJECTORY.jsonl`` rows.

The rule is ``benchmarks/e2e/README.md``'s ("How to state a claim"),
the bounds are ``BENCHMARK.json``'s: 25 % on ``busy_s`` / ``setup_s``,
10 % on ``peak_rss_mb``, all three better when lower.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import FormatError
from repro.obs.compare import (
    compare_runs,
    judge,
    load_contract,
    load_run,
    record_entry,
)

HOST = {"nproc": 2, "platform": "Linux-test", "python": "3.11.7"}


def contract_record(workload="wgs-serial", busy=0.5, setup=1.0, rss=35.0,
                    spread=0.02, n=8, failed=0, host=HOST):
    """A ``run.py --out`` record: sampled ``busy_s`` / ``setup_s`` with an
    inter-quartile range of ``spread`` x median, one ``peak_rss_mb``."""
    def summary(median):
        half = median * spread / 2
        return {"n": n, "min": median - 2 * half, "q1": median - half,
                "median": median, "q3": median + half,
                "max": median + 2 * half}

    return {
        "workload": workload, "seed": 1, "seconds": 16, "scale": 1.0,
        "host": host, "sizes": {}, "attempted": n, "failed": failed,
        "failures": [], "samples": {},
        "summary": {"busy_s": summary(busy), "setup_s": summary(setup)},
        "values": {"busy_s": busy, "setup_s": setup, "peak_rss_mb": rss},
        "extras": {},
    }


def write_records(tmp_path, base, cand):
    paths = []
    for name, record in (("base.json", base), ("cand.json", cand)):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def contract():
    return load_contract()


def verdicts(tmp_path, contract, base, cand):
    base_path, cand_path = write_records(tmp_path, base, cand)
    result = compare_runs(load_run(base_path, contract),
                          load_run(cand_path, contract), contract)
    return result, {cell["metric"]: cell["verdict"]
                    for cell in result["cells"]}


class TestRule:
    def test_a_record_against_itself_is_inside_every_bound(
        self, tmp_path, contract
    ):
        result, by_metric = verdicts(tmp_path, contract, contract_record(),
                                     contract_record())
        assert result["exit"] == 0
        assert set(by_metric) == {"busy_s", "peak_rss_mb", "setup_s"}
        assert set(by_metric.values()) == {"inside the bound"}

    def test_regression_needs_the_bound_and_the_iqr(self, tmp_path, contract):
        result, by_metric = verdicts(
            tmp_path, contract, contract_record(busy=0.50),
            contract_record(busy=0.65),
        )
        assert by_metric["busy_s"] == "REGRESSION"
        assert by_metric["setup_s"] == "inside the bound"
        assert result["exit"] == 1
        [cell] = [c for c in result["cells"] if c["metric"] == "busy_s"]
        assert cell["worse"] == pytest.approx(0.30)
        assert cell["iqr"] == pytest.approx(0.01)

    def test_improvement_mirrors_it(self, tmp_path, contract):
        result, by_metric = verdicts(
            tmp_path, contract, contract_record(setup=2.0),
            contract_record(setup=1.0),
        )
        assert by_metric["setup_s"] == "IMPROVED"
        assert result["exit"] == 0

    def test_inside_the_bound_is_neither(self, tmp_path, contract):
        result, by_metric = verdicts(
            tmp_path, contract, contract_record(busy=0.50),
            contract_record(busy=0.60),  # +20 %, bound 25 %
        )
        assert by_metric["busy_s"] == "inside the bound"
        assert result["exit"] == 0

    def test_spread_wider_than_the_bound_is_unresolved(
        self, tmp_path, contract
    ):
        result, by_metric = verdicts(
            tmp_path, contract, contract_record(spread=0.40),
            contract_record(busy=0.9),
        )
        assert by_metric["busy_s"] == "UNRESOLVED"
        assert by_metric["peak_rss_mb"] == "inside the bound"
        assert result["exit"] == 3  # non-zero, and not the regression's 1

    def test_quartiles_from_under_three_samples_are_unresolved(
        self, tmp_path, contract
    ):
        _, by_metric = verdicts(tmp_path, contract, contract_record(n=2),
                                contract_record())
        assert by_metric["busy_s"] == "UNRESOLVED"

    def test_a_value_without_samples_is_judged_on_its_bound_alone(
        self, tmp_path, contract
    ):
        result, by_metric = verdicts(
            tmp_path, contract, contract_record(rss=35.0),
            contract_record(rss=39.0),  # +11.4 %, bound 10 %
        )
        assert by_metric["peak_rss_mb"] == "REGRESSION"
        assert result["exit"] == 1

    def test_better_higher_metrics_flip_the_sign(self):
        metric = {"name": "jobs_per_s", "better": "higher", "bound": 0.25}
        def sampled(median):
            return {"n": 8, "q1": median * 0.99, "median": median,
                    "q3": median * 1.01}

        assert judge(sampled(100.0), sampled(60.0), metric)["verdict"] \
            == "REGRESSION"
        assert judge(sampled(100.0), sampled(140.0), metric)["verdict"] \
            == "IMPROVED"
        assert judge(sampled(100.0), sampled(110.0), metric)["verdict"] \
            == "inside the bound"

    def test_host_mismatch_is_unresolved_everywhere(self, tmp_path, contract):
        other = dict(HOST, nproc=64)
        result, by_metric = verdicts(
            tmp_path, contract, contract_record(),
            contract_record(busy=5.0, host=other),
        )
        assert set(by_metric.values()) == {"UNRESOLVED"}
        assert result["exit"] == 3

    def test_missing_metric_is_unresolved(self, tmp_path, contract):
        base_path, _ = write_records(tmp_path, contract_record(),
                                     contract_record())
        base = load_run(base_path, contract)
        cand = load_run(base_path, contract)
        del cand["workloads"]["wgs-serial"]["setup_s"]
        result = compare_runs(base, cand, contract)
        by_metric = {c["metric"]: (c["verdict"], c["reason"])
                     for c in result["cells"]}
        assert by_metric["setup_s"] == ("UNRESOLVED", "metric missing")
        assert by_metric["busy_s"][0] == "inside the bound"


class TestLoading:
    def test_failed_operations_are_an_error(self, tmp_path, contract):
        base_path, cand_path = write_records(
            tmp_path, contract_record(), contract_record(failed=1)
        )
        with pytest.raises(FormatError, match="failed operations"):
            load_run(cand_path, contract)
        assert main(["compare", base_path, cand_path]) == 2

    @pytest.mark.parametrize("text", [
        "{not json",                                      # truncated
        "[1, 2, 3]",                                      # not an object
        json.dumps({"name": "old", "wall_seconds": 1.0}),  # legacy bench
        json.dumps({"workload": "wgs-serial"}),           # no summary
    ])
    def test_a_non_record_file_is_a_typed_error_and_exit_2(
        self, tmp_path, contract, capsys, text
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(FormatError):
            load_run(str(bad), contract)
        good, _ = write_records(tmp_path, contract_record(),
                                contract_record())
        assert main(["compare", good, str(bad)]) == 2
        assert main(["compare", str(bad), good]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trajectory_rows_are_addressed_by_commit(self, tmp_path,
                                                     contract):
        entry = record_entry(contract_record(), contract)
        slower = record_entry(contract_record(busy=0.7), contract)
        medians_only = {"attempted": 8, "failed": 0,
                        "busy_s": {"median": 0.5},
                        "setup_s": {"median": 1.0}, "peak_rss_mb": 35.0}
        rows = tmp_path / "rows.jsonl"
        rows.write_text("".join(json.dumps(row) + "\n" for row in (
            {"commit": "aaa1111", "host": HOST,
             "workloads": {"wgs-serial": entry, "wgs-pool2": entry}},
            {"commit": "bbb2222", "host": HOST,
             "workloads": {"wgs-serial": slower, "wgs-pool2": entry}},
            {"commit": "ccc3333", "host": HOST, "source": "EXPERIMENTS.md",
             "workloads": {"wgs-serial": medians_only}},
        )))
        result = compare_runs(load_run(f"{rows}@aaa", contract),
                              load_run(f"{rows}@bbb2222", contract),
                              contract)
        by_cell = {(c["workload"], c["metric"]): c["verdict"]
                   for c in result["cells"]}
        assert by_cell[("wgs-serial", "busy_s")] == "REGRESSION"
        assert by_cell[("wgs-pool2", "busy_s")] == "inside the bound"
        assert len(by_cell) == 6
        # A back-filled row holds medians only: the honest answer.
        back = compare_runs(load_run(f"{rows}@ccc", contract),
                            load_run(f"{rows}@aaa", contract), contract)
        by_cell = {(c["workload"], c["metric"]): c["verdict"]
                   for c in back["cells"]}
        assert by_cell[("wgs-serial", "busy_s")] == "UNRESOLVED"
        assert by_cell[("wgs-serial", "peak_rss_mb")] == "inside the bound"
        assert by_cell[("wgs-pool2", "busy_s")] == "UNRESOLVED"  # missing
        with pytest.raises(FormatError, match="no row for commit"):
            load_run(f"{rows}@ddd", contract)

    def test_the_committed_trajectory_loads(self, contract):
        """Every row of ``benchmarks/TRAJECTORY.jsonl`` is a run
        ``compare`` accepts, and names the contract's workloads."""
        import os

        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "TRAJECTORY.jsonl")
        with open(path) as handle:
            rows = [json.loads(line) for line in handle]
        assert len(rows) >= 12
        names = {w["name"] for w in contract["workloads"]}
        for row in rows:
            run = load_run(f"{path}@{row['commit']}", contract)
            assert set(run["workloads"]) <= names, row["commit"]


class TestTrajectoryRows:
    """``benchmarks/trajectory.py``: a row from one record per workload,
    or — the smoke form — from several runs' medians."""

    @pytest.fixture(scope="class")
    def trajectory(self):
        import importlib.util
        import os

        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "trajectory.py")
        spec = importlib.util.spec_from_file_location("trajectory", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_one_record_is_its_own_entry(self, trajectory, contract):
        record = contract_record()
        row = trajectory.build_row({"wgs-serial": [record]}, contract, "abc")
        assert row["runs"] == 1 and row["commit"] == "abc"
        assert row["workloads"]["wgs-serial"] == record_entry(record,
                                                              contract)

    def test_several_runs_merge_to_quartiles_of_their_medians(
        self, trajectory, contract
    ):
        runs = [contract_record(busy=busy, rss=rss, n=2)
                for busy, rss in ((0.6, 36.0), (0.4, 35.0), (0.5, 37.0))]
        row = trajectory.build_row({"wgs-serial": runs}, contract, "abc")
        entry = row["workloads"]["wgs-serial"]
        assert row["runs"] == 3
        assert (entry["attempted"], entry["failed"]) == (6, 0)
        assert entry["busy_s"] == pytest.approx(
            {"n": 3, "q1": 0.45, "median": 0.5, "q3": 0.55})
        # A bare value per run becomes quartiles over the runs too.
        assert entry["peak_rss_mb"] == pytest.approx(
            {"n": 3, "q1": 35.5, "median": 36.0, "q3": 36.5})
        assert entry["setup_s"]["q1"] == entry["setup_s"]["q3"] == 1.0

    def test_a_row_across_runs_is_not_judged_against_one_run(
        self, trajectory, tmp_path, contract
    ):
        runs = [contract_record(busy=busy) for busy in (0.4, 0.5, 0.6)]
        rows = tmp_path / "rows.jsonl"
        rows.write_text("".join(json.dumps(row) + "\n" for row in (
            trajectory.build_row({"wgs-serial": runs}, contract, "aaa1111"),
            trajectory.build_row({"wgs-serial": runs[:1]}, contract,
                                 "bbb2222"),
        )))
        across, single = (load_run(f"{rows}@{commit}", contract)
                          for commit in ("aaa", "bbb"))
        same = compare_runs(across, across, contract)
        assert same["exit"] == 0
        for base, cand in ((across, single), (single, across)):
            mixed = compare_runs(base, cand, contract)
            assert mixed["exit"] == 3
            assert {(c["verdict"], c["reason"]) for c in mixed["cells"]} == {
                ("UNRESOLVED",
                 "spread across runs beside spread across iterations")}
