#!/usr/bin/env python3
"""Smoke test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks the
result line against BENCHMARK.json. Then checks that the output checks
reject corrupted outputs, that the tracer leaves hgcn unpatched after a
traced block, and that the benchmark refuses to run without hgcn's
sources beside it.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}, (
        set(result["metrics"]) ^ {m["name"] for m in spec})
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    print(f"ok  {workload} trace {trace}: {result['attempted']} checks")


def check_checks_reject_bad_outputs(tmp: Path) -> None:
    sys.path.insert(0, str(HERE))
    from checks import (Checks, check_attributions, check_correlation,
                        check_probabilities, check_train_log)
    from hgcn.data import Sample

    labels, trig = ["L1", "L2"], {"L1": "trig_l1", "L2": "trig_l2"}
    sample = Sample(id="s0", tokens=["trig_l1", "w0"], labels=["L1"])

    def write_csv(name, rows, values):
        lines = [",".join([""] + labels)]
        lines += [",".join([r] + [repr(float(v)) for v in row]) for r, row in zip(rows, values)]
        (tmp / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    tokens = ["<s>", "trig_l1", "w0", "</s>"]
    good = np.full((4, 2), 1.0 / 8)
    good[1, 0] = 0.25
    good[0, 0] = 0.0
    write_csv("s0.csv", tokens, good)
    c = Checks()
    hit, share = check_attributions(c, tmp, [sample], labels, 32, trig)
    assert c.failed == 0 and hit == 1.0 and abs(share - 0.5) < 1e-12, (c.problems, hit, share)

    for bad in (good * 2.0, good[:3], np.where(good > 0.2, np.nan, good)):
        write_csv("s0.csv", tokens[:len(bad)], bad)
        c = Checks()
        check_attributions(c, tmp, [sample], labels, 32, trig)
        assert c.failed == 1, f"attribution check passed {bad}"

    for bad in ([[1.0, 0.5], [0.4, 1.0]], [[0.9, 0.5], [0.5, 1.0]], [[1.0, 1.5], [1.5, 1.0]]):
        write_csv("corr.csv", labels, bad)
        c = Checks()
        check_correlation(c, tmp / "corr.csv", labels)
        assert c.failed == 1, f"correlation check passed {bad}"

    (tmp / "train.log").write_text("epoch 0 loss 0.5\nepoch 1 loss nan\n", encoding="utf-8")
    c = Checks()
    assert check_train_log(c, tmp / "train.log", 2)[0] is None and c.failed == 1
    c = Checks()
    check_probabilities(c, [np.array([[0.5, 0.6]])], 1, 2)
    check_probabilities(c, [np.array([[0.5, 0.5]])], 2, 2)
    assert c.failed == 2, c.problems
    print("ok  output checks reject corrupted outputs")


def check_tracer_restores() -> None:
    from hgcn import data, encoder, model
    from tracer import Tracer
    assert "hgcn.cli" not in sys.modules  # so installing the tracer imports it
    originals = (model.reconstruct_token_label, encoder.gather_rows, model.Tape.backward)
    tracer = Tracer()
    with tracer.installed():
        assert model.reconstruct_token_label is not originals[0]
        assert encoder.gather_rows is not originals[1]
    assert (model.reconstruct_token_label, encoder.gather_rows,
            model.Tape.backward) == originals
    assert sys.modules["hgcn.cli"].load_dataset is data.load_dataset
    print("ok  tracer patches import sites and restores them")


def check_refuses_without_sources(tmp: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(tmp, "short-chain", 0)
    assert proc.returncode != 0 and "correct" not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok  refuses to run without the hgcn sources")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace)
    (HERE / "_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=HERE / "_work"))
    try:
        check_checks_reject_bad_outputs(tmp)
        check_tracer_restores()
        check_refuses_without_sources(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
