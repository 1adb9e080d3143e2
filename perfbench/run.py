#!/usr/bin/env python3
"""Benchmark of the hgcn user path: synth corpus -> train -> eval -> explain -> correlate.

    python3 perfbench/run.py --workload short-chain --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/` beside
this directory and driven in-process through `hgcn.cli.main`, exactly as
the `hgcn` command would run it, from one process with one BLAS thread.
Each run:

1. sets up one replica per `Workload.replicas` and reports the median
   set-up time (`setup_s`): generate a corpus from (--seed, replica),
   write the datasets and a config that sets every `RunConfig` field;
   for `serve`, also train the replica's checkpoint;
2. repeats passes of the timed CLI phases, cycling through the replicas,
   until `--seconds` have passed and every replica has had a pass, and
   reports each phase's median throughput over the passes;
3. checks every pass's outputs (checks.py) and reads the quality figures
   from each replica's first pass;
4. prints one line per metric and the environment, then the result as
   one JSON line.

Timings are scaled to a reference host speed (see `speed_probe`). With
`--trace 1` the set-ups and passes alternate untraced and traced
(tracer.py) and the per-layer metrics are printed instead. A run whose
output checks fail prints `"correct": false` and exits with code 1.
"""

import os

# One process and one BLAS thread, set before numpy loads. Small per-sample
# matrices gain nothing from BLAS threads, and one thread keeps runs steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import (Checks, check_attributions, check_correlation, check_probabilities,
                    check_train_log, f1, read_eval, read_mse)
from tracer import LAYERS, Tracer, patch_everywhere, restore

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# On a shared 2-vCPU VM, speed drifts by up to 1.6x within minutes (other
# tenants share its cores), moving every timing alike. Each timed CLI call
# is bracketed by a fixed numpy loop that does not touch hgcn, and its
# seconds are scaled by PROBE_REF_S / (mean of the two probe times):
# timings are seconds at the reference speed, so host drift cancels and
# program changes do not.
PROBE_REF_S = 0.0094   # uncontended probe time, 2-vCPU x86-64 VM, numpy 2.4.6
PROBE_ROUNDS = 500

TRAIN_PHASES = ("train",)
SERVE_PHASES = ("eval", "explain", "correlate")
TIMED_PHASES = TRAIN_PHASES + SERVE_PHASES


@dataclasses.dataclass(frozen=True)
class Workload:
    labels: int
    vocab: int
    fillers: tuple[int, int]
    max_len: int
    train_samples: int
    test_samples: int
    epochs: int
    threshold: float
    train_in_setup: bool   # serve: each checkpoint is trained during set-up
    replicas: int          # independent corpus + model seeds per run

    @property
    def phases(self) -> tuple[str, ...]:
        return SERVE_PHASES if self.train_in_setup else TIMED_PHASES


# Why each workload exists is recorded in BENCHMARK.json. A run sets up
# `replicas` corpora and model seeds derived from --seed and cycles its passes
# through them. Until the checkpoint keeps the trained embedding table, CLI
# quality figures of one model are close to random draws; their mean over
# replicas is what makes them steady from seed to seed.
WORKLOADS = {
    # criterion-4 corpus shape; tiny graphs, so per-node Python cost dominates
    "short-chain": Workload(labels=5, vocab=60, fillers=(3, 6), max_len=32,
                            train_samples=300, test_samples=100, epochs=3,
                            threshold=0.15, train_in_setup=False, replicas=16),
    # m+n of about 120-148, some samples truncated: dense (m+n)^2 work
    # dominates. The threshold sits at 1/n so micro-F1 is not 0 this early.
    "long-doc": Workload(labels=20, vocab=400, fillers=(100, 140), max_len=128,
                         train_samples=80, test_samples=40, epochs=3,
                         threshold=0.05, train_in_setup=False, replicas=16),
    # short-chain graphs, forward-only phases over a large test set
    "serve": Workload(labels=5, vocab=60, fillers=(3, 6), max_len=32,
                      train_samples=150, test_samples=400, epochs=2,
                      threshold=0.15, train_in_setup=True, replicas=16),
}
# --size tiny: the smoke test's scale, same code path.
TINY = dict(train_samples=20, test_samples=6, epochs=2, replicas=2)


def run_config(wl: Workload, label_names, seed: int, d: Path, out: Path) -> dict:
    """Every RunConfig field, set explicitly so a changed default cannot move a workload."""
    return {
        "label_names": label_names,
        "train_path": str(d / "train.jsonl"),
        "dev_path": None,
        "test_path": str(d / "test.jsonl"),
        "num_layers": 2,
        "hidden": 64,
        "input_dim": 64,
        "activation": "tanh",
        "detach_edges": False,
        "optimizer": "adam",
        "lr": 0.02,
        "seed": seed,
        "precision": "float64",
        "decode": "threshold",
        "topk": 1,
        "threshold": wl.threshold,
        "encoder": "lookup",
        "freeze": False,
        "epochs": wl.epochs,
        "batch_size": 10,
        "max_len": wl.max_len,
        "out_dir": str(out),
    }


def speed_probe() -> float:
    """Seconds for a fixed loop of small-matrix numpy work, like the model's ops."""
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((12, 64)), rng.standard_normal((64, 64)) / 8
    start = perf_counter()
    for _ in range(PROBE_ROUNDS):
        h = np.tanh(a @ w)
        g = (1.0 - h * h) @ w.T
        s = np.zeros_like(g)
        s[:6] = g[:6]
        x = np.concatenate([h, s]).sum(axis=0, keepdims=True)
        e = np.exp(x - x.max())
        e /= e.sum()
    return perf_counter() - start


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * 2.0 * PROBE_REF_S / (probe_before + probe_after)


class CliFailed(RuntimeError):
    """A CLI call returned non-zero; already counted as a failed check."""


@dataclasses.dataclass
class Replica:
    """One corpus and model seed: its files and the outputs of its first pass."""

    dir: Path
    config: Path
    label_names: list
    trigger_map: dict
    test: list
    quality: dict = dataclasses.field(default_factory=dict)
    log_digest: str = ""


class Run:
    """One benchmark run: its replicas' set-ups, the timed passes, checks and tracer."""

    def __init__(self, wl: Workload, seed: int, work: Path, tracer=None):
        self.wl, self.seed, self.work, self.tracer = wl, seed, work, tracer
        # All replicas write into one output directory, so after a run's first
        # pass `explain` overwrites its files instead of creating them: creating
        # thousands of small files is slow and erratic on a shared disk and
        # would swamp the explain timing.
        self.out = work / "out"
        self.checks = Checks()
        self.replicas: list[Replica] = []
        self.setup_s: list[tuple[bool, float]] = []      # (traced, seconds)
        self.train_rate: list[tuple[bool, float]] = []   # (traced, sample-steps/s)
        # (traced, phase -> seconds at reference speed, phase -> measured seconds)
        self.passes: list[tuple[bool, dict, dict]] = []

    def cli(self, command: str, config: Path, phase: str) -> float:
        from hgcn import cli
        if self.tracer is not None:
            self.tracer.phase = phase
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main([command, "--config", str(config)])
        elapsed = perf_counter() - start
        if not self.checks.expect(rc == 0, f"hgcn {command} exited {rc}"):
            raise CliFailed(f"hgcn {command} exited {rc}")
        return elapsed

    def traced(self, on: bool):
        return self.tracer.installed() if on else contextlib.nullcontext()

    def set_up(self, r: int, traced: bool) -> None:
        from hgcn import data, synth
        wl = self.wl
        train_seed, test_seed, model_seed = (
            int(x) for x in np.random.SeedSequence([self.seed, r]).generate_state(3))
        d = self.work / f"replica{r}"
        train_s = None
        probe = speed_probe()
        with self.traced(traced):
            if self.tracer is not None:
                self.tracer.phase = "setup"
            start = perf_counter()
            d.mkdir(parents=True)
            lo, hi = wl.fillers
            # module attributes, so a traced set-up calls the wrapped functions
            train, label_names, trigger_map = synth.generate_synthetic_corpus(
                wl.labels, wl.vocab, wl.train_samples, seed=train_seed,
                min_fillers=lo, max_fillers=hi, id_prefix="tr")
            test, _, _ = synth.generate_synthetic_corpus(
                wl.labels, wl.vocab, wl.test_samples, seed=test_seed,
                min_fillers=lo, max_fillers=hi, id_prefix="te")
            data.save_dataset(train, d / "train.jsonl")
            data.save_dataset(test, d / "test.jsonl")
            config = d / "config.json"
            config.write_text(
                json.dumps(run_config(wl, label_names, model_seed, d, self.out), indent=1),
                encoding="utf-8")
            rep = Replica(d, config, label_names, trigger_map, test)
            if wl.train_in_setup:
                train_s = self.cli("train", config, "setup")
            setup_s = perf_counter() - start
        probe_after = speed_probe()
        if train_s is not None:
            shutil.copy(self.out / "model.ckpt", d / "model.ckpt")
        self.setup_s.append((traced, at_reference_speed(setup_s, probe, probe_after)))
        if train_s is not None:
            self.record_train(rep, at_reference_speed(train_s, probe, probe_after), traced)
        self.replicas.append(rep)

    def record_train(self, rep: Replica, seconds: float, traced: bool) -> None:
        wl = self.wl
        self.train_rate.append((traced, wl.train_samples * wl.epochs / seconds))
        loss, digest = check_train_log(self.checks, self.out / "train.log", wl.epochs)
        if not rep.log_digest:
            rep.log_digest = digest
            rep.quality["train_loss_final"] = loss
        self.checks.expect(digest == rep.log_digest,
                           "train.log differs between trainings on one seed")

    def run_pass(self, traced: bool) -> None:
        rep = self.replicas[len(self.passes) % len(self.replicas)]
        if self.wl.train_in_setup:
            shutil.copy(rep.dir / "model.ckpt", self.out / "model.ckpt")
        times, raw = {}, {}
        probe = speed_probe()
        with self.traced(traced):
            for phase in self.wl.phases:
                raw[phase] = self.cli(phase, rep.config, phase)
                next_probe = speed_probe()
                times[phase] = at_reference_speed(raw[phase], probe, next_probe)
                probe = next_probe
        if "train" in times:
            self.record_train(rep, times["train"], traced)
        self.passes.append((traced, times, raw))
        if self.check_outputs(rep):
            self.probe_probabilities(rep)

    def check_outputs(self, rep: Replica) -> bool:
        """Check a pass's outputs; True on the replica's first pass."""
        out = self.out
        got = read_eval(self.checks, out / "eval.json", len(rep.label_names))
        got["attribution_mse"] = read_mse(self.checks, out / "attributions" / "mse.txt")
        got["trigger_hit_rate"], got["trigger_attribution_share"] = check_attributions(
            self.checks, out / "attributions", rep.test, rep.label_names,
            self.wl.max_len, rep.trigger_map)
        check_correlation(self.checks, out / "pearson.csv", rep.label_names)
        check_correlation(self.checks, out / "label_cosine.csv", rep.label_names)
        if "attribution_mse" not in rep.quality:
            rep.quality.update(got)
            return True
        first = {k: rep.quality[k] for k in got}
        self.checks.expect(got == first, "outputs differ between passes on one seed")
        return False

    def probe_probabilities(self, rep: Replica) -> None:
        """Re-run `hgcn eval` untimed on the pass's checkpoint, recording what it decodes."""
        from hgcn import metrics
        seen, undo = [], []
        for name in ("decode_threshold", "decode_topk"):
            original = getattr(metrics, name, None)
            if original is None:
                continue

            def recording(probs, *args, _original=original, **kwargs):
                seen.append(probs)
                return _original(probs, *args, **kwargs)
            patch_everywhere(original, recording, undo)
        try:
            self.cli("eval", rep.config, "probe")
        finally:
            restore(undo)
        check_probabilities(self.checks, seen, self.wl.test_samples, self.wl.labels)

    def execute(self, seconds: float) -> None:
        # In a traced run, set-ups and passes alternate untraced / traced.
        trace = self.tracer is not None
        for r in range(self.wl.replicas):
            self.set_up(r, traced=trace and r % 2 == 1)
        deadline = perf_counter() + seconds
        while len(self.passes) < len(self.replicas) or perf_counter() < deadline:
            self.run_pass(traced=trace and len(self.passes) % 2 == 1)

    def quality(self, key: str):
        """Mean over replicas, each read from its first pass; None if any is missing."""
        values = [rep.quality.get(key) for rep in self.replicas]
        if not values or any(v is None for v in values):
            return None
        return statistics.fmean(values)

    def pooled_f1(self):
        """(micro, macro) F1 over the replicas' test sets taken as one evaluation.

        Label j of every replica is the same label (name and trigger token),
        so per-label counts add up; pooling keeps macro-F1 from resting on a
        handful of positives per label.
        """
        counts = [rep.quality.get("label_counts") for rep in self.replicas]
        if not counts or any(c is None for c in counts):
            return None, None
        per_label = np.sum(np.array(counts), axis=0)   # n x (tp, fp, fn)
        micro = f1(*(int(x) for x in per_label.sum(axis=0)))
        return micro, statistics.fmean(f1(*(int(x) for x in row)) for row in per_label)


# -- metrics ---------------------------------------------------------------

def median_of(pairs, traced=False) -> float:
    values = [v for t, v in pairs if t == traced]
    return statistics.median(values) if values else float("nan")


def end_to_end(run: Run) -> dict:
    wl, q = run.wl, run.quality
    micro, macro = run.pooled_f1()
    rates = {p: median_of([(t, wl.test_samples / times[p]) for t, times, _ in run.passes])
             for p in SERVE_PHASES}
    return {
        "setup_s": (median_of(run.setup_s), "s"),
        "train_samples_per_s": (median_of(run.train_rate), "1/s"),
        "eval_samples_per_s": (rates["eval"], "1/s"),
        "explain_samples_per_s": (rates["explain"], "1/s"),
        "correlate_samples_per_s": (rates["correlate"], "1/s"),
        "train_loss_final": (q("train_loss_final"), "mse"),
        "micro_f1": (micro, "fraction"),
        "macro_f1": (macro, "fraction"),
        "jaccard": (q("jaccard"), "fraction"),
        "trigger_attribution_share": (q("trigger_attribution_share"), "fraction"),
        "attribution_mse": (q("attribution_mse"), "mse"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# metric -> (phases, measure, keys): self or total seconds of the listed
# tracer keys, summed over the phases. Op metrics cover the train phase
# (zero on serve, which trains only during set-up).
OP_METRICS = {
    "autodiff.backward_self_ms": (TRAIN_PHASES, "self", ["autodiff.Tape.backward"]),
    "model.forward_self_ms": (TRAIN_PHASES, "self", ["model.forward"]),
    "autodiff.small_ops_fwd_ms": (TRAIN_PHASES, "self", [
        "autodiff.slice_rows", "autodiff.concat_rows", "autodiff.activation", "autodiff.scale"]),
    "autodiff.small_ops_bwd_ms": (TRAIN_PHASES, "self", [
        "autodiff.slice_rows:bwd", "autodiff.concat_rows:bwd", "autodiff.activation:bwd",
        "autodiff.scale:bwd"]),
    "graph.assemble_fwd_ms": (TRAIN_PHASES, "self", ["graph.assemble_block_node"]),
    "graph.assemble_bwd_ms": (TRAIN_PHASES, "self", ["graph.assemble_block_node:bwd"]),
    "graph.normalize_fwd_ms": (TRAIN_PHASES, "self", ["graph.normalize_adjacency_node"]),
    "graph.normalize_bwd_ms": (TRAIN_PHASES, "self", ["graph.normalize_adjacency_node:bwd"]),
    "graph.chain_build_ms": (TRAIN_PHASES, "self", [
        "graph.build_chain_adjacency", "graph.build_label_adjacency"]),
    "autodiff.matmul_fwd_ms": (TRAIN_PHASES, "self", ["autodiff.matmul"]),
    "autodiff.matmul_bwd_ms": (TRAIN_PHASES, "self", ["autodiff.matmul:bwd"]),
    "graph.reconstruct_fwd_ms": (TRAIN_PHASES, "self", ["graph.reconstruct_token_label"]),
    "graph.reconstruct_bwd_ms": (TRAIN_PHASES, "self", ["graph.reconstruct_token_label:bwd"]),
    "autodiff.head_fwd_ms": (TRAIN_PHASES, "self", [
        "autodiff.col_sums", "autodiff.softmax_row", "autodiff.mse_loss"]),
    "autodiff.head_bwd_ms": (TRAIN_PHASES, "self", [
        "autodiff.col_sums:bwd", "autodiff.softmax_row:bwd", "autodiff.mse_loss:bwd"]),
    "encoder.embed_fwd_ms": (TRAIN_PHASES, "self", [
        "encoder.TrainableLookup.embed", "autodiff.gather_rows"]),
    "encoder.embed_bwd_ms": (TRAIN_PHASES, "self", ["autodiff.gather_rows:bwd"]),
    "autodiff.adam_step_ms": (TRAIN_PHASES, "self", ["autodiff.Adam.step"]),
    "model.forward_predict_ms": (SERVE_PHASES, "total", ["model.forward"]),
    "analysis.render_heatmap_ms": (TIMED_PHASES, "total", ["analysis.render_heatmap"]),
    "analysis.build_attribution_ms": (TIMED_PHASES, "total", ["analysis.build_attribution"]),
    "analysis.pearson_ms": (TIMED_PHASES, "total", ["analysis.pearson_matrix"]),
    "analysis.label_cosine_ms": (TIMED_PHASES, "total", ["analysis.label_cosine_matrix"]),
    "metrics.evaluate_ms": (TIMED_PHASES, "total", ["metrics.evaluate"]),
    "data.load_dataset_ms": (TIMED_PHASES, "total", ["data.load_dataset"]),
    "data.save_checkpoint_ms": (TIMED_PHASES, "total", ["data.save_checkpoint"]),
    "data.load_checkpoint_ms": (TIMED_PHASES, "total", ["data.load_checkpoint"]),
    "synth.generate_ms": (("setup",), "total", ["synth.generate_synthetic_corpus"]),
}


def per_layer(run: Run) -> dict:
    """Traced figures per traced pass (set-up figures: per traced set-up).

    Times are as measured, not scaled to the reference speed, so they add up
    to the phase times; phase.setup_ms is the scaled median set-up time.
    """
    tr, wl = run.tracer, run.wl
    traced = [raw for t, _, raw in run.passes if t]
    n_pass = max(len(traced), 1)
    n_setup = sum(1 for t, _ in run.setup_s if t)
    out = {}
    for name, (phases, measure, keys) in OP_METRICS.items():
        per = n_setup if phases == ("setup",) else n_pass
        out[name] = (1000.0 * tr.seconds(phases, keys, measure) / max(per, 1), "ms")
    for layer in LAYERS:
        out[f"layer.{layer}_self_ms"] = (
            1000.0 * tr.layer_self_seconds(TIMED_PHASES, layer) / n_pass, "ms")
    for phase in TIMED_PHASES:
        out[f"phase.{phase}_ms"] = (1000.0 * sum(t.get(phase, 0.0) for t in traced) / n_pass, "ms")
    out["phase.setup_ms"] = (1000.0 * median_of(run.setup_s, traced=True), "ms")
    samples = n_pass * (3 * wl.test_samples
                        + (0 if wl.train_in_setup else wl.train_samples * wl.epochs))
    out["autodiff.tape_nodes_per_sample"] = (
        sum(tr.tape_nodes[p] for p in TIMED_PHASES) / samples, "count")
    out["graph.adjacency_bytes_per_sample"] = (
        sum(tr.adjacency_bytes[p] for p in TIMED_PHASES) / samples, "bytes")
    out["runtime.gc_ms"] = (1000.0 * sum(tr.gc_seconds[p] for p in TIMED_PHASES) / n_pass, "ms")
    out["trace.train_overhead_samples_per_s"] = (
        median_of(run.train_rate, traced=True) - median_of(run.train_rate), "1/s")
    walls = [(t, sum(times.values())) for t, times, _ in run.passes]
    out["trace.overhead_pct"] = (
        100.0 * (median_of(walls, traced=True) / median_of(walls) - 1.0), "%")
    # too noisy at these run lengths to bound as end-to-end metrics
    out["analysis.trigger_hit_rate"] = (run.quality("trigger_hit_rate"), "fraction")
    out["checks.error_rate"] = (run.checks.failed / max(run.checks.attempted, 1), "fraction")
    return out


# -- environment -----------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        cdll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "commit": git_commit(),
    }


# -- entry point -----------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke test's scale")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hgcn" / "__init__.py").is_file():
        print(f"error: no hgcn sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hgcn
    if Path(hgcn.__file__).resolve().parent != SRC / "hgcn":
        print(f"error: imported hgcn from {hgcn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.size == "tiny":
        wl = dataclasses.replace(wl, **TINY)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    run = Run(wl, args.seed, work, Tracer() if args.trace else None)
    try:
        run.execute(args.seconds)
    except CliFailed:
        pass
    except Exception as e:  # any other failure ends the run; reported as a failed check
        traceback.print_exc()
        run.checks.expect(False, f"run aborted: {e!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(run) if args.trace else end_to_end(run)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print("train_log_sha256 " + " ".join(rep.log_digest for rep in run.replicas))
    print(f"passes {len(run.passes)} replicas {len(run.replicas)}")
    print(f"trigger_hit_rate {run.quality('trigger_hit_rate')!r} fraction")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if args.trace:
        n_traced = max(sum(t for t, _, _ in run.passes), 1)
        shown = [f"{k}={1000 * v / n_traced:.3f}ms" for k, v in run.tracer.top_self(TIMED_PHASES)]
        print("top_self_per_pass " + " ".join(shown))
    checks = run.checks
    print(f"error_rate {checks.failed / max(checks.attempted, 1)!r} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for problem in checks.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = checks.failed == 0 and all(
        isinstance(v, float) and v == v for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value if correct else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
