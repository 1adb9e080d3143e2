import ctypes
import json
import os
import resource
import shutil
import subprocess
import sys
import tomllib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import hgcn
from hgcn import cli
from hgcn import run as runmod
from hgcn.cli import _load_run_config, build_parser, main
from hgcn.data import load_dataset, load_tensors, save_dataset, save_embeddings, save_tensors
from hgcn.encoder import token_rows
from hgcn.run import RunConfig
from hgcn.synth import generate_synthetic_corpus

from oracles import parse_heatmap_csv


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    train, label_names, _ = generate_synthetic_corpus(
        3, 20, 30, seed=0, min_fillers=3, max_fillers=6, id_prefix="tr")
    test, _, _ = generate_synthetic_corpus(
        3, 20, 10, seed=1, min_fillers=3, max_fillers=6, id_prefix="te")
    save_dataset(train, root / "train.jsonl")
    save_dataset(test, root / "test.jsonl")
    return root, label_names


def write_config(path, corpus_root, label_names, out_dir, **extra):
    values = {
        "label_names": label_names,
        "train_path": str(corpus_root / "train.jsonl"),
        "test_path": str(corpus_root / "test.jsonl"),
        "hidden": 8,
        "input_dim": 8,
        "activation": "tanh",
        "lr": 0.02,
        "epochs": 3,
        "out_dir": str(out_dir),
    }
    values.update(extra)
    path.write_text(json.dumps(values), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    root, label_names = corpus
    out = tmp_path_factory.mktemp("run")
    config = write_config(out / "config.json", root, label_names, out)
    assert main(["train", "--config", str(config)]) == 0
    return root, label_names, out, config


def test_train_writes_log_and_checkpoint(trained):
    _, _, out, _ = trained
    assert (out / "model.ckpt").exists()
    log = (out / "train.log").read_text().splitlines()
    assert len(log) == 3
    assert log[0].startswith("epoch 0 loss ")


def test_eval_writes_report(trained, capsys):
    _, _, out, config = trained
    assert main(["eval", "--config", str(config)]) == 0
    text = (out / "eval.txt").read_text()
    assert "micro_f1" in text and "jaccard" in text
    report = json.loads((out / "eval.json").read_text())
    for key in ("micro_f1", "macro_f1", "jaccard"):
        assert 0.0 <= report[key] <= 1.0
    assert "micro_f1" in capsys.readouterr().out


def test_explain_writes_attributions_and_mse(trained):
    root, label_names, out, config = trained
    assert main(["explain", "--config", str(config)]) == 0
    attr_dir = out / "attributions"
    test_samples = load_dataset(root / "test.jsonl", label_names)
    for s in test_samples:
        values, rows, cols = parse_heatmap_csv(attr_dir / f"{s.id}.csv")
        assert cols == label_names
        assert rows[0] == "<s>" and rows[-1] == "</s>"
        assert values.sum() == pytest.approx(1.0, abs=1e-9)
        assert (attr_dir / f"{s.id}.svg").exists()
    mse_line = (attr_dir / "mse.txt").read_text()
    assert mse_line.startswith("attribution_mse ")
    assert float(mse_line.split()[1]) >= 0.0


def test_explain_without_annotations_removes_stale_mse(trained, tmp_path, capsys):
    root, label_names, out, _ = trained
    run_dir = tmp_path / "out"
    run_dir.mkdir()
    shutil.copy(out / "model.ckpt", run_dir / "model.ckpt")
    samples = load_dataset(root / "test.jsonl", label_names)
    assert any(s.annotations for s in samples)
    config = write_config(tmp_path / "c.json", root, label_names, run_dir)
    assert main(["explain", "--config", str(config)]) == 0
    assert (run_dir / "attributions" / "mse.txt").exists()
    for sample in samples:
        sample.annotations = []
    save_dataset(samples, tmp_path / "bare.jsonl")
    config = write_config(tmp_path / "c.json", root, label_names, run_dir,
                          test_path=str(tmp_path / "bare.jsonl"))
    capsys.readouterr()
    assert main(["explain", "--config", str(config)]) == 0
    assert not (run_dir / "attributions" / "mse.txt").exists()
    assert "attribution_mse" not in capsys.readouterr().out


def test_explain_removes_heatmaps_of_samples_it_did_not_explain(trained, tmp_path):
    root, label_names, out, _ = trained
    run_dir = tmp_path / "out"
    run_dir.mkdir()
    shutil.copy(out / "model.ckpt", run_dir / "model.ckpt")
    samples = load_dataset(root / "test.jsonl", label_names)[:6]
    assert all(s.annotations for s in samples)
    for name, subset in [("six.jsonl", samples), ("two.jsonl", samples[:2])]:
        save_dataset(subset, tmp_path / name)
        config = write_config(tmp_path / "c.json", root, label_names, run_dir,
                              test_path=str(tmp_path / name))
        assert main(["explain", "--config", str(config)]) == 0
    left = {p.name for p in (run_dir / "attributions").iterdir()}
    assert left == {f"{s.id}{ext}" for s in samples[:2] for ext in (".csv", ".svg")} | {"mse.txt"}


def test_correlate_writes_heatmaps(trained):
    _, label_names, out, config = trained
    assert main(["correlate", "--config", str(config)]) == 0
    for name in ("pearson", "label_cosine"):
        values, rows, cols = parse_heatmap_csv(out / f"{name}.csv")
        assert rows == cols == label_names
        assert (values <= 1.0 + 1e-12).all() and (values >= -1.0 - 1e-12).all()
        assert (out / f"{name}.svg").exists()


def test_diverged_training_fails_before_writing(corpus, tmp_path, capsys):
    # at this step size the weights overflow in epoch 0; a checkpoint of them could not load
    root, label_names = corpus
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", root, label_names, out, lr=1e300, epochs=2)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(config)]) == 2
    assert "training diverged: epoch 0 mean loss is nan" in capsys.readouterr().err
    assert not out.exists()


def test_cli_eval_matches_in_process_evaluation(corpus, tmp_path):
    # the checkpoint must carry the trained embedding table, not a re-draw
    root, label_names = corpus
    config = write_config(tmp_path / "c.json", root, label_names, tmp_path)
    assert main(["train", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config)]) == 0
    cfg = RunConfig(**json.loads(config.read_text()))
    params, provider, vocab, _ = runmod.train(load_dataset(cfg.train_path, label_names), cfg)
    report = runmod.evaluate_model(load_dataset(cfg.test_path, label_names),
                                   params, provider, cfg, vocab)
    assert json.loads((tmp_path / "eval.json").read_text()) == asdict(report)


def test_eval_json_is_the_dump_of_the_report_as_a_dict(tmp_path, monkeypatch, capsys):
    # per-label rates from numpy counts are numpy scalars; the file is written from
    # the report's own fields, and its bytes are those of a deep-copied dict's dump
    tp, fp, fn = np.int64(3), np.int64(1), np.int64(0)
    rows = [{"label": j, "precision": tp / (tp + fp) / (j + 1), "recall": tp / (tp + fn),
             "f1": np.float64(6 / 7) / (j + 1), "tp": 3, "fp": 1, "fn": 0} for j in range(2)]
    report = runmod.EvalReport(micro_f1=np.float64(0.1) + 0.2, macro_f1=2 / 3, jaccard=1.0,
                               per_label=rows)
    assert all(isinstance(row[k], np.float64) for row in rows for k in ("precision", "f1"))
    monkeypatch.setattr(runmod, "evaluate_model", lambda *args: report)
    cfg = RunConfig(label_names=["A", "B"], out_dir=str(tmp_path))
    assert cli.cmd_eval(cfg, [], None, None, None) == 0
    want = json.dumps(asdict(report), indent=2).encode("utf-8")
    assert (tmp_path / "eval.json").read_bytes() == want


def test_file_encoder_end_to_end(corpus, tmp_path, capsys):
    root, label_names = corpus
    samples = (load_dataset(root / "train.jsonl", label_names)
               + load_dataset(root / "test.jsonl", label_names))
    max_len = 8  # cuts the longer samples, so the vector counts follow the truncation
    rng = np.random.default_rng(0)
    vectors = tmp_path / "vectors.bin"
    save_embeddings(vectors, {s.id: rng.normal(size=(len(token_rows(s.tokens, max_len)), 8))
                              for s in samples})
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", root, label_names, out, max_len=max_len)
    for command in ("train", "eval", "explain", "correlate"):
        assert main([command, "--config", str(config), "--encoder", f"file:{vectors}"]) == 0
    cfg = RunConfig(**json.loads(config.read_text()), encoder=f"file:{vectors}")
    params, provider, vocab, _ = runmod.train(load_dataset(cfg.train_path, label_names), cfg)
    report = runmod.evaluate_model(load_dataset(cfg.test_path, label_names),
                                   params, provider, cfg, vocab)
    assert json.loads((out / "eval.json").read_text()) == asdict(report)

    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--encoder", f"file:{out / 'model.ckpt'}"]) == 2
    assert "not an embedding container" in capsys.readouterr().err


@pytest.mark.parametrize("width", [None, 5], ids=["missing-file", "wrong-width"])
def test_file_encoder_errors_come_before_any_output(trained, tmp_path, capsys, width):
    root, label_names, trained_out, _ = trained
    vectors = tmp_path / "vectors.bin"
    if width is not None:
        samples = (load_dataset(root / "train.jsonl", label_names)
                   + load_dataset(root / "test.jsonl", label_names))
        save_embeddings(vectors, {s.id: np.ones((len(token_rows(s.tokens, 32)), width))
                                  for s in samples})
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", root, label_names, out)
    flags = ["--config", str(config), "--encoder", f"file:{vectors}"]
    assert main(["train", *flags]) == (2 if width is None else 1)
    err = capsys.readouterr().err
    assert not out.exists()
    if width is None:
        assert str(vectors) in err
        return
    assert f"input_dim is 8, but {vectors} holds 5-wide vectors" in err
    out.mkdir()
    shutil.copy(trained_out / "model.ckpt", out / "model.ckpt")
    for command in ("eval", "explain", "correlate"):
        assert main([command, *flags]) == 1
        assert "input_dim is 8" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["model.ckpt"]


def test_non_float_file_vectors_are_runtime_error(corpus, tmp_path, capsys):
    root, label_names = corpus
    samples = (load_dataset(root / "train.jsonl", label_names)
               + load_dataset(root / "test.jsonl", label_names))
    vectors = tmp_path / "vectors.bin"
    save_embeddings(vectors, {s.id: np.ones((len(token_rows(s.tokens, 32)), 8), dtype=complex)
                              for s in samples})
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", root, label_names, out)
    assert main(["train", "--config", str(config), "--encoder", f"file:{vectors}"]) == 2
    assert f"{vectors}: tensor '{samples[0].id}' has dtype <c16" in capsys.readouterr().err
    assert not out.exists()


def test_sample_without_file_vectors_is_runtime_error_naming_the_file(corpus, tmp_path,
                                                                      capsys):
    root, label_names = corpus
    samples = load_dataset(root / "train.jsonl", label_names)
    vectors = tmp_path / "vectors.bin"
    save_embeddings(vectors, {s.id: np.ones((len(token_rows(s.tokens, 32)), 8))
                              for s in samples[1:]})
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", root, label_names, out)
    assert main(["train", "--config", str(config), "--encoder", f"file:{vectors}"]) == 2
    assert capsys.readouterr().err == (f"runtime error: {vectors} holds no vector block "
                                       f"for sample {samples[0].id!r}\n")


def test_encoder_differing_from_the_checkpoint_is_config_error(trained, tmp_path, capsys):
    # a stored embedding table means the lookup encoder, none means file: vectors
    root, label_names, trained_out, _ = trained
    samples = (load_dataset(root / "train.jsonl", label_names)
               + load_dataset(root / "test.jsonl", label_names))
    rng = np.random.default_rng(0)
    vectors = tmp_path / "vectors.bin"
    save_embeddings(vectors, {s.id: rng.normal(size=(len(token_rows(s.tokens, 32)), 8))
                              for s in samples})
    file_flags = ["--encoder", f"file:{vectors}"]
    file_out, lookup_out = tmp_path / "file", tmp_path / "lookup"
    config = write_config(tmp_path / "c.json", root, label_names, file_out)
    assert main(["train", "--config", str(config), *file_flags]) == 0
    lookup_out.mkdir()
    shutil.copy(trained_out / "model.ckpt", lookup_out / "model.ckpt")
    capsys.readouterr()
    for out, flags, trained_with, encoder in [
            (lookup_out, file_flags, "lookup", f"file:{vectors}"),
            (file_out, [], "file:", "lookup")]:
        for command in ("eval", "explain", "correlate"):
            assert main([command, "--config", str(config), "--out", str(out), *flags]) == 1
            assert (f"{out / 'model.ckpt'} was trained with the {trained_with} encoder, "
                    f"but encoder is {encoder!r}") in capsys.readouterr().err
    assert [path.name for path in lookup_out.iterdir()] == ["model.ckpt"]
    assert sorted(path.name for path in file_out.iterdir()) == ["model.ckpt", "train.log"]


@pytest.mark.parametrize("flags, extra, field", [
    (["--layers", "1"], {}, "num_layers"),
    (["--layers", "3"], {}, "num_layers"),
    ([], {"activation": "relu"}, "activation"),
    (["--hidden", "16"], {}, "checkpoint hidden 8 differs from config 16"),
    ([], {"input_dim": 16}, "checkpoint input_dim 8 differs from config 16"),
])
def test_architecture_mismatch_is_config_error(trained, tmp_path, capsys,
                                               flags, extra, field):
    root, label_names, out, _ = trained
    config = write_config(tmp_path / "c.json", root, label_names, out, **extra)
    assert main(["eval", "--config", str(config), *flags]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("edit, named", [
    # a checkpoint written when the training knobs were stored with the model
    (lambda c: c.update(optimizer="adam", lr=0.02, seed=0, precision="float64"),
     "unexpected ['lr', 'optimizer', 'precision', 'seed']"),
    (lambda c: c.pop("hidden"), "missing ['hidden']"),
    (lambda c: c.update(num_layers="2"), "num_layers must be an int, got '2'"),
    (lambda c: c.update(num_layers=2.0), "num_layers must be an int, got 2.0"),
    (lambda c: c.update(hidden=True), "hidden must be an int, got True"),
    (lambda c: c.update(activation="gelu"), "activation must be one of"),
    # a bool is dropped from an older checkpoint (below); any other value is no known key
    (lambda c: c.update(detach_edges="no"), "unexpected ['detach_edges']"),
], ids=["extra-keys", "missing-key", "layers-string", "layers-float", "hidden-bool",
        "activation-unknown", "detach-string"])
def test_checkpoint_config_key_mismatch_is_runtime_error(trained, tmp_path, capsys,
                                                         edit, named):
    root, label_names, out, _ = trained
    meta, tensors = load_tensors(out / "model.ckpt")
    fmt = meta.pop("format")
    edit(meta["config"])
    save_tensors(tmp_path / "model.ckpt", tensors, meta, fmt)
    config = write_config(tmp_path / "c.json", root, label_names, tmp_path)
    assert main(["eval", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert str(tmp_path / "model.ckpt") in err


@pytest.mark.parametrize("detach_edges", [False, True])
def test_checkpoint_storing_detach_edges_evaluates_as_before(trained, tmp_path, detach_edges):
    # checkpoints once stored this flag; it changed training gradients, never the forward pass
    root, label_names, out, _ = trained
    plain, edited = tmp_path / "plain", tmp_path / "edited"
    plain.mkdir()
    edited.mkdir()
    shutil.copy(out / "model.ckpt", plain / "model.ckpt")
    meta, tensors = load_tensors(out / "model.ckpt")
    fmt = meta.pop("format")
    meta["config"]["detach_edges"] = detach_edges
    save_tensors(edited / "model.ckpt", tensors, meta, fmt)
    for run_dir in (plain, edited):
        config = write_config(tmp_path / "c.json", root, label_names, run_dir)
        assert main(["eval", "--config", str(config)]) == 0
    assert (edited / "eval.txt").read_bytes() == (plain / "eval.txt").read_bytes()


def test_checkpoint_storing_a_freeze_flag_evaluates_as_before(trained, tmp_path):
    # checkpoints once stored `embedding_frozen`; inference never trains, so it is not read
    root, label_names, out, _ = trained
    plain, edited = tmp_path / "plain", tmp_path / "edited"
    plain.mkdir()
    edited.mkdir()
    shutil.copy(out / "model.ckpt", plain / "model.ckpt")
    meta, tensors = load_tensors(out / "model.ckpt")
    fmt = meta.pop("format")
    assert "embedding_frozen" not in meta
    meta["embedding_frozen"] = True
    save_tensors(edited / "model.ckpt", tensors, meta, fmt)
    for run_dir in (plain, edited):
        config = write_config(tmp_path / "c.json", root, label_names, run_dir)
        assert main(["eval", "--config", str(config)]) == 0
    assert (edited / "eval.txt").read_bytes() == (plain / "eval.txt").read_bytes()


@pytest.mark.parametrize("edit, named", [
    (lambda meta, tensors: meta.update(vocab=["a"]), "vocabulary"),
    (lambda meta, tensors: meta.update(vocab={"a": "x"}), "vocabulary"),
    (lambda meta, tensors: meta.update(vocab={"foo": 0, "bar": 4}), "vocabulary"),
    (lambda meta, tensors: meta.pop("vocab"), "vocabulary"),
    (lambda meta, tensors: meta.pop("label_names"), "label_names must be a list of strings"),
    (lambda meta, tensors: meta.update(label_names="L1"), "label_names must be a list of strings"),
    (lambda meta, tensors: tensors.pop("w_layer_1"), "checkpoint missing tensor 'w_layer_1'"),
    (lambda meta, tensors: tensors.update(w_token_in=tensors["w_token_in"][:-1]),
     "'w_token_in' has shape (7, 8), expected (8, 8)"),
    (lambda meta, tensors: tensors.update(embedding_table=tensors["embedding_table"][:5]),
     "'embedding_table' has shape (5, 8)"),
    # a third layer's weight on a 2-layer model, then a name no architecture has
    (lambda meta, tensors: tensors.update(w_layer_2=tensors["w_layer_1"],
                                          junk=tensors["w_layer_1"]),
     "unexpected tensor 'w_layer_2'"),
], ids=["vocab-list", "vocab-string-id", "vocab-sparse", "vocab-missing", "labels-missing",
        "labels-string", "weight-missing", "weight-shape", "table-rows", "extra-tensors"])
def test_checkpoint_malformed_vocab_or_weight_is_runtime_error(trained, tmp_path, capsys,
                                                               edit, named):
    root, label_names, out, _ = trained
    meta, tensors = load_tensors(out / "model.ckpt")
    fmt = meta.pop("format")
    edit(meta, tensors)
    save_tensors(tmp_path / "model.ckpt", tensors, meta, fmt)
    config = write_config(tmp_path / "c.json", root, label_names, tmp_path)
    assert main(["eval", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert str(tmp_path / "model.ckpt") in err


@pytest.mark.parametrize("values, key", [
    pytest.param({"optimizer": "adamw"}, "optimizer", id="optimizer-adamw"),
    pytest.param({"activation": "gelu"}, "activation", id="activation-gelu"),
    pytest.param({"precision": "float32"}, 'precision is retired: its only accepted value is '
                 '"float64", got "float32"', id="precision-float32"),
    pytest.param({"precision": "float16"}, "precision", id="precision-float16"),
    pytest.param({"optimizer": "adam", "lr": 0.0}, "lr", id="adam-lr-zero"),
    pytest.param({"optimizer": "adam", "lr": -0.01}, "lr", id="adam-lr-negative"),
    # a retired key takes only the value it held by default, before the other checks
    pytest.param({"optimizer": "sgd", "lr": 0.0}, "optimizer is retired", id="sgd-lr-zero"),
    pytest.param({"optimizer": "sgd", "lr": -0.5}, "optimizer is retired", id="sgd-lr-negative"),
    pytest.param({"detach_edges": True}, 'detach_edges is retired: its only accepted value is '
                 'false, got true', id="detach_edges-true"),
    pytest.param({"detach_edges": 0}, "detach_edges is retired", id="detach_edges-zero"),
    pytest.param({"hidden": "8"}, "hidden", id="hidden-string"),
    pytest.param({"lr": "0.1"}, "lr", id="lr-string"),
    pytest.param({"epochs": 1.5}, "epochs", id="epochs-float"),
    pytest.param({"freeze": "no"}, "freeze", id="freeze-string"),
    pytest.param({"label_names": "L1"}, "label_names", id="label_names-string"),
    pytest.param({"seed": -1}, "seed", id="seed-negative"),
    pytest.param({"lr": float("nan")}, "lr", id="lr-nan"),
    pytest.param({"lr": float("inf")}, "lr", id="lr-infinity"),
    pytest.param({"label_names": ["L1", "L2", "L3", "L1"]}, "label_names",
                 id="label_names-repeated"),
    pytest.param({"input_dim": 0}, "input_dim", id="input_dim-zero"),
])
def test_unsupported_knob_rejected_before_training(corpus, tmp_path, capsys, values, key):
    root, label_names = corpus
    out = tmp_path / "out"
    values = {"label_names": label_names, **values}
    config = write_config(tmp_path / "c.json", root, out_dir=out, **values)
    assert main(["train", "--config", str(config)]) == 1
    assert key in capsys.readouterr().err
    assert not (out / "train.log").exists()


def test_config_setting_every_key_trains_and_evaluates(corpus, tmp_path):
    # the flat format the benchmark writes: all 19 RunConfig keys and the 3 retired ones
    root, label_names = corpus
    values = {
        "label_names": label_names,
        "train_path": str(root / "train.jsonl"),
        "dev_path": None,
        "test_path": str(root / "test.jsonl"),
        "num_layers": 2,
        "hidden": 8,
        "input_dim": 8,
        "activation": "tanh",
        "detach_edges": False,
        "optimizer": "adam",
        "lr": 0.02,
        "seed": 3,
        "precision": "float64",
        "decode": "threshold",
        "topk": 1,
        "threshold": 0.15,
        "encoder": "lookup",
        "freeze": False,
        "epochs": 2,
        "batch_size": 10,
        "max_len": 32,
        "out_dir": str(tmp_path),
    }
    assert len(values) == 22
    config = tmp_path / "c.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config)]) == 0


def test_decode_override_changes_predictions(trained, tmp_path):
    root, label_names, out, config = trained
    out2 = tmp_path / "thr"
    assert main(["eval", "--config", str(config),
                 "--decode", "topk:1", "--out", str(out)]) == 0
    # threshold far below 1/n selects every label, top-1 selects exactly one
    out_dir_cfg = write_config(tmp_path / "c2.json", root, label_names, out,
                               decode="threshold", threshold=0.01)
    topk = json.loads((out / "eval.json").read_text())
    assert main(["eval", "--config", str(out_dir_cfg)]) == 0
    thr = json.loads((out / "eval.json").read_text())
    assert topk != thr


@pytest.mark.parametrize("command,code,message", [
    ("eval", 2, "runtime error: empty evaluation set"),
    ("explain", 0, "wrote 0 attribution matrices"),
    ("correlate", 2, "runtime error: empty prediction list"),
])
def test_empty_test_set(trained, tmp_path, capsys, command, code, message):
    root, label_names, out, _ = trained
    run_dir = tmp_path / "out"
    run_dir.mkdir()
    shutil.copy(out / "model.ckpt", run_dir / "model.ckpt")
    (tmp_path / "test.jsonl").write_text("", encoding="utf-8")
    config = write_config(tmp_path / "c.json", root, label_names, run_dir,
                          test_path=str(tmp_path / "test.jsonl"))
    assert main([command, "--config", str(config)]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


@pytest.mark.parametrize("ids", [["a", "a"], ["x", "sub/z"]], ids=["repeated", "slash"])
def test_explain_rejects_bad_ids_before_writing(trained, tmp_path, capsys, ids):
    # each id names its heatmap files: a repeat would overwrite, a '/' fail midway
    root, label_names, out, _ = trained
    run_dir = tmp_path / "out"
    run_dir.mkdir()
    shutil.copy(out / "model.ckpt", run_dir / "model.ckpt")
    samples = load_dataset(root / "test.jsonl", label_names)[:2]
    for sample, sample_id in zip(samples, ids):
        sample.id = sample_id
    save_dataset(samples, tmp_path / "test.jsonl")
    config = write_config(tmp_path / "c.json", root, label_names, run_dir,
                          test_path=str(tmp_path / "test.jsonl"))
    assert main(["explain", "--config", str(config)]) == 1
    assert "line 2: " in capsys.readouterr().err
    assert not (run_dir / "attributions").exists()


def test_synth_subcommand_writes_datasets(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--labels", "2", "--vocab-size", "12",
                 "--train-samples", "8", "--test-samples", "4",
                 "--seed", "3", "--out", str(out)]) == 0
    train = load_dataset(out / "train.jsonl", ["L1", "L2"])
    test = load_dataset(out / "test.jsonl", ["L1", "L2"])
    assert len(train) == 8 and len(test) == 4
    assert all(s.annotations for s in train)


def test_synth_deterministic(tmp_path):
    for name in ("a", "b"):
        assert main(["synth", "--labels", "2", "--vocab-size", "12",
                     "--train-samples", "5", "--test-samples", "2",
                     "--seed", "7", "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "a" / "train.jsonl").read_bytes()
            == (tmp_path / "b" / "train.jsonl").read_bytes())


@pytest.mark.parametrize("flags, named", [
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--labels", "0"], "--labels must be >= 1, got 0"),
    (["--labels", "-2"], "--labels must be >= 1, got -2"),
    (["--vocab-size", "3", "--labels", "3"], "--vocab-size must be >= 4, got 3"),
    (["--train-samples", "-2"], "--train-samples must be >= 1, got -2"),
    (["--test-samples", "0"], "--test-samples must be >= 1, got 0"),
], ids=["seed-negative", "labels-zero", "labels-negative", "vocab-no-filler",
        "train-samples-negative", "test-samples-zero"])
def test_synth_bad_flag_is_config_error(tmp_path, capsys, flags, named):
    out = tmp_path / "synth"
    assert main(["synth", *flags, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_model_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--hidden", "5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--hidden" in capsys.readouterr().err
    assert not (tmp_path / "train.jsonl").exists()


def test_missing_label_names_is_config_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"train_path": "x.jsonl"}), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 1
    assert "label_names" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", "true", '"abc"', '["label_names"]'],
                         ids=["number", "null", "bool", "string", "array"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, text):
    config = tmp_path / "c.json"
    config.write_text(text, encoding="utf-8")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config {config}: top level must be a JSON object" in err
    assert not (tmp_path / "out" / "train.log").exists()


def test_override_flags_set_their_config_keys(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"label_names": ["A"], "seed": 1, "out_dir": "x"}),
                      encoding="utf-8")

    def load(*flags):
        return _load_run_config(build_parser().parse_args(["eval", "--config", str(config),
                                                           *flags]))
    assert load("--seed", "3", "--layers", "4", "--hidden", "9", "--decode", "thr:0.25",
                "--encoder", "file:v.bin", "--freeze", "--out", "o") == RunConfig(
        label_names=["A"], seed=3, num_layers=4, hidden=9, decode="threshold", threshold=0.25,
        encoder="file:v.bin", freeze=True, out_dir="o")
    # absent flags leave the file's values and the defaults alone
    assert load() == RunConfig(label_names=["A"], seed=1, out_dir="x")


def test_main_calls_in_one_process_share_no_options(tmp_path, monkeypatch):
    # the parser is built once per process; each call's flags must be its own
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"label_names": ["A"], "seed": 1, "out_dir": "x"}),
                      encoding="utf-8")
    loaded = []

    def record(args):
        loaded.append(_load_run_config(args))
        raise runmod.ConfigError("recorded")
    monkeypatch.setattr(cli, "_load_run_config", record)
    assert main(["eval", "--config", str(config), "--seed", "3", "--freeze",
                 "--decode", "thr:0.25", "--out", "o"]) == 1
    assert main(["correlate", "--config", str(config)]) == 1
    assert main(["train", "--config", str(config), "--hidden", "9"]) == 1
    assert main(["eval", "--config", str(config)]) == 1
    assert loaded == [
        RunConfig(label_names=["A"], seed=3, freeze=True, decode="threshold", threshold=0.25,
                  out_dir="o"),
        RunConfig(label_names=["A"], seed=1, out_dir="x"),
        RunConfig(label_names=["A"], seed=1, hidden=9, out_dir="x"),
        RunConfig(label_names=["A"], seed=1, out_dir="x"),
    ]
    assert build_parser() is build_parser()


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"label_names": ["A"], "learning_rate": 0.1}),
                      encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 1
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("decode", ["best:2", "topk:x", "thr:abc", "topk:"],
                         ids=["unknown-kind", "topk-not-int", "thr-not-float", "topk-empty"])
def test_bad_decode_flag(decode, corpus, tmp_path, capsys):
    root, label_names = corpus
    config = write_config(tmp_path / "c.json", root, label_names, tmp_path)
    assert main(["eval", "--config", str(config), "--decode", decode]) == 1
    assert "--decode" in capsys.readouterr().err


def test_eval_without_checkpoint_is_runtime_error(corpus, tmp_path, capsys):
    root, label_names = corpus
    config = write_config(tmp_path / "c.json", root, label_names,
                          tmp_path / "empty")
    assert main(["eval", "--config", str(config)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_corrupt_checkpoint_is_runtime_error(corpus, tmp_path):
    root, label_names = corpus
    out = tmp_path / "out"
    out.mkdir()
    (out / "model.ckpt").write_bytes(b"garbage\nmore garbage")
    config = write_config(tmp_path / "c.json", root, label_names, out)
    assert main(["eval", "--config", str(config)]) == 2


def test_train_missing_dataset_path(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"label_names": ["A"]}), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 1
    assert "train_path" in capsys.readouterr().err


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_training_keeps_the_heap_mapped_between_steps(tmp_path):
    # A freed tape must not hand the heap top back to the system for the
    # next step to fault in again: with glibc's default trim threshold a
    # short-chain step took about 310 minor page faults, with hgcn's about 0.
    train, label_names, _ = generate_synthetic_corpus(
        5, 60, 300, seed=0, min_fillers=3, max_fillers=6, id_prefix="tr")
    save_dataset(train, tmp_path / "train.jsonl")
    config = write_config(tmp_path / "config.json", tmp_path, label_names, tmp_path / "out",
                          hidden=64, input_dim=64, max_len=32, batch_size=10)
    assert main(["train", "--config", str(config)]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["train", "--config", str(config)]) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    steps = 3 * 300 // 10
    assert faults / steps < 5, f"{faults} minor page faults over {steps} steps"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads_after(statement, **preset):
    """The BLAS thread variables a fresh interpreter holds after `statement`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(hgcn.__file__).parent.parent))
    code = (f"import json, os; {statement}; "
            f"print(json.dumps([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_entry_point_defaults_blas_threads_to_one():
    assert _blas_threads_after("import hgcn.__main__") == ["1", "1", "1"]


def test_entry_point_keeps_blas_threads_the_user_set():
    assert _blas_threads_after("import hgcn.__main__", OMP_NUM_THREADS="2") == ["1", "2", "1"]


def test_library_import_sets_no_blas_threads():
    assert _blas_threads_after("import hgcn.cli") == [None, None, None]


def test_hgcn_command_is_the_entry_point_module():
    with open(Path(hgcn.__file__).parents[2] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["scripts"]["hgcn"] == "hgcn.__main__:main"
    env = dict(os.environ, PYTHONPATH=str(Path(hgcn.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "hgcn", "--help"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and "usage: hgcn" in done.stdout
