"""The tools behind a change's claims.

tools/output_digest.py shows outputs byte-identical; tools/src_lines.py counts code lines;
tools/fidelity.py reads where the trained model's attributions land;
tools/projection_crossover.py times `run.PROJECT_RATIO`'s two sides; tools/pairs.py writes
the BENCH files.
"""

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_digest():
    return load_tool("output_digest")


def isolate_digest(monkeypatch):
    # main() prepends perfbench/ and src/ to sys.path, and loading a tool
    # sets these variables; both are restored afterwards. The other tools
    # import output_digest by name, from tools/.
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")


def test_output_digest_is_deterministic_and_covers_every_output(monkeypatch):
    isolate_digest(monkeypatch)
    digest = load_digest()
    runs = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert digest.main([]) == 0
        runs.append(out.getvalue().splitlines())
    assert runs[0] == runs[1]

    written = {}
    for line in runs[0]:
        workload, path, sha = line.split(" ")
        assert len(sha) == 64
        written.setdefault(workload, set()).add(path)
    workloads = digest.load_benchmark().WORKLOADS
    assert set(written) == set(workloads)
    for name, wl in workloads.items():
        expected = outputs(wl.test_samples)
        assert expected <= written[name], name
        if name == digest.EXTRA_RUN_WORKLOAD:
            assert {f"file-encoder/{path}" for path in expected} <= written[name]
            assert {"synth/train.jsonl", "synth/test.jsonl"} <= written[name]

    # each model-knob variant of the short-chain shape covers every output too
    expected = outputs(digest.VARIANT_SIZE["test_samples"])
    for prefix in digest.VARIANTS:
        variant = {path[len(prefix):] for path in written[digest.EXTRA_RUN_WORKLOAD]
                   if path.startswith(prefix)}
        assert variant == expected, prefix


def test_output_digest_dev_variant_logs_dev_metrics(monkeypatch, tmp_path):
    # the benchmark runs have no dev set; `dev/` names the run's own test file
    isolate_digest(monkeypatch)
    digest = load_digest()
    bench = digest.load_benchmark()
    wl = dataclasses.replace(bench.WORKLOADS[digest.EXTRA_RUN_WORKLOAD], **digest.VARIANT_SIZE)
    digest.digest_workload(wl, bench.run_config, tmp_path, overrides=digest.VARIANTS["dev/"])
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["dev_path"] == str(tmp_path / "test.jsonl")
    log = (tmp_path / "out" / "train.log").read_text().splitlines()
    assert len(log) == wl.epochs and all(" micro_f1 " in line for line in log)


def test_import_hgcn_refuses_a_package_from_another_directory(monkeypatch, tmp_path):
    import hgcn
    isolate_digest(monkeypatch)
    digest = load_digest()
    src = Path(hgcn.__file__).resolve().parent.parent
    assert digest.import_hgcn(src) is hgcn
    assert sys.path[0] == str(src)
    # `hgcn` is already imported from `src`, so `import` does not read another directory's
    (tmp_path / "hgcn").mkdir()
    with pytest.raises(SystemExit, match=f"imported hgcn from .*, not {re.escape(str(tmp_path))}"):
        digest.import_hgcn(tmp_path)


def test_import_hgcn_refuses_a_directory_without_hgcn(monkeypatch, tmp_path):
    isolate_digest(monkeypatch)
    digest = load_digest()
    # no `hgcn` importable from anywhere: none imported, none on the path
    monkeypatch.delitem(sys.modules, "hgcn")
    monkeypatch.setattr(sys, "path",
                        [p for p in sys.path if not (Path(p or ".") / "hgcn").exists()])
    with pytest.raises(SystemExit, match=f"imported no hgcn from {re.escape(str(tmp_path))}"):
        digest.import_hgcn(tmp_path)
    assert "hgcn" not in sys.modules


def outputs(test_samples) -> set[str]:
    """Every file `train`, `eval`, `explain` and `correlate` write for a test set of this size."""
    expected = {"train.log", "model.ckpt", "eval.txt", "eval.json", "attributions/mse.txt"}
    expected |= {f"{stem}.{ext}" for stem in ("pearson", "label_cosine")
                 for ext in ("csv", "svg")}
    expected |= {f"attributions/te{i}.{ext}" for i in range(test_samples)
                 for ext in ("csv", "svg")}
    return expected


def test_src_lines_counts_code_not_comments_or_docstrings(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Package docstring."""\n')
    (pkg / "mod.py").write_text(textwrap.dedent('''\
        """Module docstring
        over two lines."""

        # a comment
        import os  # a trailing comment


        class A:
            """Class docstring."""

            x = """a string,
            not a docstring"""

            def f(self,
                  y):
                """Function
                docstring."""
                # another comment
                return (y +
                        1)
        '''))
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"),
                             "--src", str(tmp_path)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["pkg/__init__.py 0", "pkg/mod.py 8", "total 8"]


def test_fidelity_classifies_each_argmax_row(monkeypatch):
    isolate_digest(monkeypatch)  # loading the tool pins BLAS threads
    fidelity = load_tool("fidelity")
    rows = ["<s>", "w1", "T1", "w2", "T2", "</s>"]
    triggers = {"T1", "T2"}
    assert [fidelity.classify(rows, r, "T1", triggers) for r in range(6)] == [
        "marker", "neighbour", "trigger", "neighbour", "other", "marker"]
    # a marker is a marker, next to the trigger or not
    assert fidelity.classify(["<s>", "T2", "w1", "</s>"], 0, "T2", triggers) == "marker"
    assert fidelity.classify(["<s>", "T2", "w1", "w3", "</s>"], 3, "T2", triggers) == "filler"


@pytest.mark.parametrize("text,seeds", [("0-19", range(20)), ("3", range(3, 4))])
def test_fidelity_seed_range_reads_a_range_or_one_seed(monkeypatch, text, seeds):
    isolate_digest(monkeypatch)
    assert load_tool("fidelity").seed_range(text) == seeds


@pytest.mark.parametrize("text", ["3-", "-3", "5-2", "a-b", "", "1-2-3"])
def test_fidelity_seed_range_rejects_other_text(monkeypatch, text):
    isolate_digest(monkeypatch)
    fidelity = load_tool("fidelity")
    with pytest.raises(argparse.ArgumentTypeError, match="not a seed range"):
        fidelity.seed_range(text)


def test_fidelity_counts_every_gold_label(monkeypatch):
    from hgcn.run import RunConfig
    from hgcn.synth import generate_synthetic_corpus
    isolate_digest(monkeypatch)
    fidelity = load_tool("fidelity")
    train, label_names, trigger_map = generate_synthetic_corpus(3, 12, 12, seed=0)
    test, _, _ = generate_synthetic_corpus(3, 12, 6, seed=1, id_prefix="te")
    cfg = RunConfig(label_names=label_names, hidden=6, input_dim=6, epochs=2)
    values = fidelity.fidelity(cfg, train, test, trigger_map)
    assert set(values) == set(fidelity.COLUMNS)
    assert sum(values[c] for c in fidelity.CLASSES) == sum(len(s.labels) for s in test)
    assert 0 <= values["exact"] <= values["±1"] <= 1
    assert values["±1"] >= (values["trigger"] + values["neighbour"]) / sum(
        values[c] for c in fidelity.CLASSES)
    assert all(0 <= values[f"edge {k}"] <= 1 for k in fidelity.ROW_KINDS)


def test_fidelity_trains_criterion_4s_corpus_and_config(monkeypatch):
    from test_acceptance import CORPUS, RUN, SPLITS
    isolate_digest(monkeypatch)
    fidelity = load_tool("fidelity")
    assert fidelity.CORPUS == CORPUS
    assert fidelity.SPLITS == SPLITS
    assert fidelity.RUN == RUN


def test_projection_crossover_times_each_workload_and_restores_run(monkeypatch):
    from hgcn import run
    isolate_digest(monkeypatch)
    crossover = load_tool("projection_crossover")
    passes = []  # each chunk's forward, so the tool must consume `_infer`'s stream
    dtypes = set()  # the timed table's and weights' float types, as `run.train` builds them
    made = []  # whether each pass's call of the shipped `_projected_table` projected
    real_forward, real_projected_table = run.forward, run._projected_table

    def counting_forward(batch_ids, provider, params, *args):
        passes.append(len(batch_ids))
        dtypes.update(p.value.dtype for p in [provider.table, *params.parameters()])
        return real_forward(batch_ids, provider, params, *args)

    def recording_projected_table(*args):
        table = real_projected_table(*args)
        made.append(table is not None)
        return table

    monkeypatch.setattr(run, "forward", counting_forward)
    monkeypatch.setattr(run, "_projected_table", recording_projected_table)
    ratio = run.PROJECT_RATIO
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        assert crossover.main(["--rounds", "1", "--ratios", "0.5"]) == 0
    result = json.loads(out.getvalue())
    # per workload, the probe's pass and two timed rounds of both sides, one of them warm-up
    test_samples = sum(crossover.load_benchmark().WORKLOADS[name].test_samples
                       for name in crossover.WORKLOADS)
    assert sum(passes) == (1 + 2 * 2) * test_samples
    # per workload, the probe's pass does not project, and one side of each round does
    assert made == [False, False, True, True, False] * len(crossover.WORKLOADS)
    assert dtypes == {np.dtype(np.float32)}
    assert set(result) == set(crossover.WORKLOADS)
    for name, entry in result.items():
        assert entry["padded_rows"] > 0, name
        (table,) = entry["tables"]
        assert table["ratio"] == 0.5 and table["rounds"] == 1, name
        assert table["rows"] >= round(0.5 * entry["padded_rows"]), name
    assert run._projected_table is recording_projected_table and run.PROJECT_RATIO == ratio


def test_pairs_writes_one_tiny_pair_against_head(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs a git checkout with a HEAD commit")
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "pairs.py"), "HEAD", "smoke",
                             "serve:1:7:0", "--size", "tiny", "--out", str(tmp_path)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(bench) == {"label", "command", "method", "summary", "runs"}
    assert bench["label"] == "smoke" and "perfbench/run.py" in bench["command"]
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    runs = bench["runs"]
    assert [(r["side"], r["pair"]) for r in runs] == [("parent", 1), ("change", 1)]
    for r in runs:
        assert set(r) == {"side", "pair", "workload", "seed", "commit", "env", "result"}
        assert (r["workload"], r["seed"], r["env"]["seed"]) == ("serve", 7, 7)
        assert r["result"]["correct"] and r["result"]["failed"] == 0
    assert runs[0]["commit"] == head and runs[1]["commit"].startswith("src tree ")
    summary = bench["summary"]["serve"]
    assert summary["failed_checks"] == {"parent": 0, "change": 0}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(summary["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for entry in summary["metrics"].values():
        assert set(entry) == {"parent_median", "parent_quartiles", "change_median",
                              "change_quartiles", "ratio", "pairs", "change_wins",
                              "change_losses", "ties", "median_gain_beyond_parent_iqr"}
        assert entry["pairs"] == 1
        assert entry["change_wins"] + entry["change_losses"] + entry["ties"] == 1


def test_pairs_makes_its_out_directory_before_the_first_run(tmp_path, monkeypatch):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs a git checkout with a HEAD commit")
    pairs = load_tool("pairs")
    out = tmp_path / "new" / "dir"
    seen = []

    def fake_run(side_dir, workload, seed, seconds, size):
        seen.append(out.is_dir())
        return {"env": {}, "result": {"failed": 0, "metrics": {}}}

    monkeypatch.setattr(pairs, "export", lambda tree, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(pairs, "run_side", fake_run)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert pairs.main(["HEAD", "made", "serve:1:7:0", "--out", str(out)]) == 0
    assert seen == [True, True]
    assert json.loads((out / "BENCH_made.json").read_text())["label"] == "made"


def test_pairs_method_records_the_command_without_its_out_directory():
    pairs = load_tool("pairs")
    for out in (["--out", "/elsewhere/bench"], ["--out=/elsewhere/bench"]):
        args = pairs.parse_args(["HEAD", "x", "serve:1:7:0", *out, "--size", "tiny"])
        assert args.out == Path("/elsewhere/bench")
        written_by = pairs.method(args, "abc1234", "def5678").split("Written by: ")[1]
        assert written_by == "python3 tools/pairs.py HEAD x serve:1:7:0 --size tiny"


def test_pairs_summary_reads_each_metric_in_its_direction():
    pairs = load_tool("pairs")

    def run(side, pair, rate, rss):
        return {"side": side, "pair": pair, "workload": "w", "result": {"failed": 0, "metrics": {
            "rate": {"value": rate}, "rss": {"value": rss}}}}
    runs = [run("parent", 1, 10.0, 50.0), run("change", 1, 12.0, 50.0),
            run("change", 2, 13.0, 49.0), run("parent", 2, 11.0, 51.0),
            run("parent", 3, 10.0, 50.0), run("change", 3, 9.0, 50.0)]
    got = pairs.summarize(runs, "w", [{"name": "rate", "better": "higher"},
                                      {"name": "rss", "better": "lower"}])["metrics"]
    assert got["rate"]["parent_median"] == 10.0 and got["rate"]["change_median"] == 12.0
    assert (got["rate"]["change_wins"], got["rate"]["change_losses"], got["rate"]["ties"]) == (2, 1, 0)
    assert got["rate"]["ratio"] == 1.2 and got["rate"]["median_gain_beyond_parent_iqr"]
    assert (got["rss"]["change_wins"], got["rss"]["change_losses"], got["rss"]["ties"]) == (1, 0, 2)
    assert not got["rss"]["median_gain_beyond_parent_iqr"]
