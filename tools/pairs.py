#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent revision and this checkout's src/, written as one BENCH file.

    python3 tools/pairs.py PARENT LABEL WORKLOAD:PAIRS:SEED:SECONDS... [--size tiny] [--out DIR]

For example,

    python3 tools/pairs.py d529ddc grouped_explain serve:10:3101:30 long-doc:10:3121:30

runs 10 serve pairs on seeds 3101-3110, then 10 long-doc pairs on seeds
3121-3130, each run 30 s long.

The parent side is a `git archive` export of PARENT. The change side is a
copy of that export whose src/ is the working tree's src/ (its files that
git does not ignore), so perfbench/ is the same on both sides and only
the program differs. Pair p of a workload runs `perfbench/run.py` on seed
SEED + p - 1 once on each side, one run after the other, the parent first
in odd pairs and the change first in even ones.

The tool reads each run's result line and `env` line; it does not
recompute them. It writes `BENCH_<LABEL>.json` into DIR (default: the
repository root) with `label`, `command`, `method`, a `summary` per
workload (failed checks per side and, for each end-to-end metric of
BENCHMARK.json, both sides' medians and quartiles, the change/parent
median ratio, wins, losses, ties and `median_gain_beyond_parent_iqr`)
and `runs`, each tagged with its `side`, `pair`, `workload`, `seed`,
`commit` and `env`. DIR is made, with its parents, before the first run.
`method` ends with the command that wrote the file, less its `--out DIR`,
so the file reads the same wherever it was written.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0"


def git(*args, env=None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True).stdout


def export(tree: str, dest: Path) -> None:
    """Extract `git archive` of a commit or tree into `dest`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", tree))) as tar:
        tar.extractall(dest, filter="data")


def src_tree() -> str:
    """The git tree of the working tree's src/, built in a scratch index so the real one is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "--", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env).decode().strip()


def workload_spec(text: str) -> tuple[str, int, int, float]:
    try:
        name, pairs, seed, seconds = text.split(":")
        return name, int(pairs), int(seed), float(seconds)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not WORKLOAD:PAIRS:SEED:SECONDS") from None


def run_side(side_dir: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One `perfbench/run.py` run: its result line and its environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0", "--size", size],
        cwd=side_dir, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [line[len("env "):] for line in lines if line.startswith("env ")]
    if not lines or not env:
        raise RuntimeError(f"{side_dir.name} {workload} seed {seed} printed no result "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return {"env": json.loads(env[0]), "result": json.loads(lines[-1])}


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 6)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def summarize(runs, workload: str, metrics) -> dict:
    """Each side's failed checks and, per metric, the paired comparison of the two sides."""
    mine = [r for r in runs if r["workload"] == workload]
    out = {"failed_checks": {side: sum(r["result"]["failed"] for r in mine if r["side"] == side)
                             for side in ("parent", "change")},
           "metrics": {}}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        by_pair = {}
        for r in mine:
            value = (r["result"]["metrics"].get(name) or {}).get("value")
            if isinstance(value, (int, float)):
                by_pair.setdefault(r["pair"], {})[r["side"]] = value
        pairs = [(v["parent"], v["change"]) for _, v in sorted(by_pair.items()) if len(v) == 2]
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q = quartiles(parent)
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        losses = sum(sign * (c - p) < 0 for p, c in pairs)
        out["metrics"][name] = {
            "parent_median": round(p_med, 6), "parent_quartiles": p_q,
            "change_median": round(c_med, 6), "change_quartiles": quartiles(change),
            "ratio": round(c_med / p_med, 4) if p_med else None,
            "pairs": len(pairs), "change_wins": wins, "change_losses": losses,
            "ties": len(pairs) - wins - losses,
            "median_gain_beyond_parent_iqr": sign * (c_med - p_med) > p_q[1] - p_q[0],
        }
    return out


def method(args, parent: str, tree: str) -> str:
    plan = "; ".join(f"{pairs} {name}, seeds {seed}-{seed + pairs - 1}, {seconds:g} s"
                     for name, pairs, seed, seconds in args.workloads)
    return (f"parent (side 'parent', commit {parent}, run from a `git archive` export of it) "
            f"and change (side 'change', a copy of that export whose src/ is the git tree "
            f"{tree}, the working tree's src/) runs of the same workload and seed form a pair; "
            f"the pairs ({plan}) ran one after another on one host, in the order listed, "
            f"the parent first in odd pairs and the change first in even ones, at size "
            f"{args.size}; perfbench/ is the same on both sides. Quartiles are "
            f"statistics.quantiles(n=4, method='inclusive'); ratio is change median / parent "
            f"median; a win is a pair whose change run reads better than its parent run in the "
            f"metric's direction (BENCHMARK.json); median_gain_beyond_parent_iqr is whether the "
            f"change median beats the parent median by more than the parent's interquartile "
            f"range. Written by: python3 tools/pairs.py {' '.join(args.argv)}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the parent revision, as git names it")
    p.add_argument("label", help="the file written is BENCH_<label>.json")
    p.add_argument("workloads", nargs="+", type=workload_spec,
                   metavar="WORKLOAD:PAIRS:SEED:SECONDS")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="perfbench/run.py's --size")
    p.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH file")
    args = p.parse_args(argv)
    argv = list(sys.argv[1:] if argv is None else argv)
    # the command as `method` records it, without the output directory
    args.argv = [a for a, before in zip(argv, [None, *argv])
                 if "--out" not in (a, before) and not a.startswith("--out=")]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)  # before the runs, not at the final write
    parent = git("rev-parse", "--short", f"{args.parent}^{{commit}}").decode().strip()
    tree = src_tree()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(parent, sides["parent"])
        shutil.copytree(sides["parent"], sides["change"], ignore=shutil.ignore_patterns("src"))
        export(tree, sides["change"] / "src")
        commits = {"parent": parent, "change": f"src tree {tree}"}
        for name, pairs, first_seed, seconds in args.workloads:
            for pair in range(1, pairs + 1):
                seed = first_seed + pair - 1
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    got = run_side(sides[side], name, seed, seconds, args.size)
                    runs.append({"side": side, "pair": pair, "workload": name, "seed": seed,
                                 "commit": commits[side], **got})
                    print(f"{name} pair {pair} {side}: failed {got['result']['failed']}",
                          file=sys.stderr)
    bench = {
        "label": args.label,
        "command": COMMAND,
        "method": method(args, parent, tree),
        "summary": {name: summarize(runs, name, metrics) for name, *_ in args.workloads},
        "runs": runs,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
