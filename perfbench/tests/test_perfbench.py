"""Tests of the benchmark harness itself (not of the library it measures)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from affcopy import intervals, slowseq  # noqa: E402


@pytest.fixture
def quick(monkeypatch, tmp_path):
    """Result files into a temporary directory, one set-up probe per run."""
    monkeypatch.setattr(run, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    return tmp_path


def _main(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_traced_and_untraced_runs_give_identical_outputs(tmp_path):
    result = run.traced_run(workloads.WORKLOADS["translate-sweep"], 5, 0.01,
                            str(tmp_path / "spans.jsonl.gz"))
    assert result["failed_cases"] == []
    assert result["attempted"] >= 1
    assert all(untraced == traced for _, _, _, untraced, traced in result["cases"])
    assert result["metrics"]["slowseq.decompose_translates.calls"] == 1
    assert result["metrics"]["cantor.remnants_built"] == 2 ** 11 - 2  # the set-up ladder
    assert not hasattr(intervals.normalize, "__wrapped__")  # wrappers removed afterwards


def test_self_time_subtracts_child_spans():
    synthetic = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 2.0, 5.0, 0, 0],
        ["grandchild", 3.0, 4.0, 1, 0],
        ["child", 6.0, 8.0, 0, 0],
    ]
    assert spans.self_times(synthetic) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_sees_reimported_names_and_methods():
    import affcopy

    tracer = spans.Tracer()
    tracer.install(affcopy)
    try:
        tracer.case = 0
        assert slowseq.normalize is intervals.normalize  # one wrapper for both names
        a = intervals.IntervalSet((intervals.Interval.open(0, 1),))
        a.union(a.translate(2))
        intervals.normalize(iv for iv in a.parts)  # a generator is counted, not consumed
    finally:
        tracer.uninstall()
    names = [record[0] for record in tracer.spans]
    assert names == ["intervals.IntervalSet.translate", "intervals.IntervalSet.affine",
                     "intervals.IntervalSet.union", "intervals.normalize"]
    assert tracer.counters["intervals.union.parts_in"] == 2
    assert tracer.counters["intervals.normalize.parts_out"] == 1


def test_failing_check_raises_fail_ratio_and_exit_code(quick, capsys, monkeypatch):
    def wrong(*args, **kwargs):
        decomposition = original(*args, **kwargs)
        return dataclasses.replace(decomposition, disjoint_part=intervals.EMPTY)

    original = slowseq.decompose_translates
    monkeypatch.setattr(slowseq, "decompose_translates", wrong)
    code, result = _main(capsys, "--workload", "translate-sweep", "--seed", "1",
                         "--seconds", "0.01")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    [record] = [json.load(open(p)) for p in quick.glob("*.json")]
    assert record["fail_ratio"] == 1.0


def test_wrong_golden_digest_fails_the_run(quick, capsys, monkeypatch):
    examples = ("appendix-schedule --depth 3", "appendix-premeasure --schedule 4,14 --j 1 --k 1")
    monkeypatch.setattr(workloads, "README_EXAMPLES", examples)
    monkeypatch.setitem(workloads.WORKLOADS, "cli-readme", dataclasses.replace(
        workloads.WORKLOADS["cli-readme"], round_size=len(examples)))
    monkeypatch.setitem(workloads.GOLDEN, examples[1], "0" * 64)
    code, result = _main(capsys, "--workload", "cli-readme", "--seed", "1",
                         "--seconds", "0.01")
    assert code == 1
    assert (result["attempted"], result["failed"]) == (2, 1)


@pytest.mark.parametrize("argv", [
    ["--workload", "no-such-workload", "--seed", "1", "--seconds", "1"],
    ["--workload", "translate-sweep", "--seed", "1.5", "--seconds", "1"],
    ["--workload", "translate-sweep", "--seed", "x", "--seconds", "1"],
    ["--workload", "translate-sweep", "--seed", "1", "--seconds", "0"],
])
def test_bad_input_is_an_input_error(quick, capsys, argv):
    with pytest.raises(SystemExit) as stop:
        run.main(argv)
    assert stop.value.code == 2
    assert capsys.readouterr().out == ""


def test_missing_library_sources_fail_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "translate-sweep",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)


def test_compare_verdicts():
    same = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    paired = lambda change: list(zip(same, change))
    faster = [v * 0.8 for v in same]
    slower = [v * 1.2 for v in same]
    noisy = [50, 150, 100, 60, 140, 100, 55, 145, 100, 100]
    assert compare.verdict(same, faster, paired(faster), "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(same, slower, paired(slower), "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(same, same, paired(same), "lower", 0.1)["verdict"] == "within bound"
    assert compare.verdict(noisy, noisy, paired(noisy), "lower", 0.1)["verdict"] == "unresolved"
    won = compare.verdict(same, slower, paired(slower), "higher", 0.1)
    assert (won["verdict"], won["change_won"], won["parent_won"]) == ("better", 10, 0)


def test_gate_parsing_reads_the_acceptance_asserts():
    with open(gates.ACCEPTANCE, encoding="utf-8") as handle:
        found = gates.criterion_gates(handle.read())
    assert found[4] == 60
    rows = gates.margins("criterion 4: PASS (45.50 s) ...\ncriterion 5: PASS (0.10 s) x\n",
                         found)
    assert rows[0]["margin_s"] == pytest.approx(14.5)
    assert rows[1]["gate_s"] is None
