"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

They run real child processes at the smallest size (one round per
workload), so they take about half a minute.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def good_result(op):
    text = (run.GOLDEN / f"{op.golden}.txt").read_text(encoding="utf-8")
    code, output = text.split("\n", 1)
    return {"code": int(code.split()[1]), "output": output, "traceback": None, "renormalized": True}


def test_corrupted_output_is_a_failure():
    reference = run.load_reference()
    op = run.TRANSPORT[0]
    assert run.judge(op, good_result(op), reference) == ""
    corrupted = dict(good_result(op), output=good_result(op)["output"].replace("1", "2", 1))
    assert run.judge(op, corrupted, reference)
    assert run.judge(op, dict(good_result(op), code=1), reference)
    assert run.judge(op, dict(good_result(op), traceback="Traceback ...\nKeyError"), reference)
    assert run.judge(op, dict(good_result(op), renormalized=False), reference)

    digest_op = next(op for op in run.VERIFY if op.golden is None)
    assert run.judge(digest_op, {"code": 0, "output": "x", "traceback": None}, reference)


def test_wrong_output_counts_in_failed(tmp_path):
    # The assoc report checked against the b1_only golden file.
    wrong = run.Op("check_b2_b1_only", ("check-b2", run.FIX + "assoc.json"), golden="check_b2_b1_only")
    right = run.VERIFY[0]
    samples = run.run_round([right, wrong], False, tmp_path, run.load_reference())
    assert [s.ok for s in samples] == [True, False]


def test_host_speed_is_timed_during_the_operation():
    speed = child.HostSpeed()
    speed.edge()
    speed.start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    speed.stop()
    speed.edge()
    assert len(speed.times) > 2 * child.EDGE_TASKS  # the timer ticked during the loop
    assert 0 < speed.in_op_s < 0.2
    assert speed.spent_s > speed.in_op_s
    assert speed.task_s() > 0


def dense_inputs(seed, name):
    workdir = run.WORK / f"test-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run.dense_ops(seed, workdir)
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    finally:
        shutil.rmtree(workdir)


def test_same_seed_gives_identical_dense_inputs():
    first = dense_inputs(7, "a")
    assert len(first) == run.DENSE_DOCS
    assert dense_inputs(7, "b") == first
    assert dense_inputs(8, "c") != first


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_runs_at_smallest_size(workload):
    line = result_line(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(line["metrics"]) == names
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    line = result_line(["--workload", "solve", "--seed", "0", "--seconds", "0", "--trace", "1"])
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
