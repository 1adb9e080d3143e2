"""Per-layer timing of the hgcn package, recorded from outside it.

A `Tracer` wraps the public functions of every layer (module) of `hgcn`,
plus a few methods, for the duration of a `with tracer.installed():`
block. Modules import their callees by name (`from .graph import
reconstruct_token_label`), so each wrapper replaces the original at
every import site in every loaded `hgcn` module, not only where it is
defined.

Each wrapped call adds its total time and its self time (total minus the
time of the wrapped calls it made) under `(phase, key)`, where `key` is
`<module>.<function>` or `<module>.<Class>.<method>`. An autodiff or
graph op that returns a node with a backward closure gets the closure
swapped for a timed one, recorded under `<key>:bwd`; the tape's own
backward loop is then self time of `autodiff.Tape.backward`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("autodiff", "graph", "encoder", "model", "run", "data", "metrics",
          "analysis", "cli", "synth")
# Methods worth timing; other methods stay inside their caller's self time.
METHODS = (("autodiff", "Tape", "backward"), ("autodiff", "Adam", "step"),
           ("encoder", "TrainableLookup", "embed"))
# Layers whose functions return autodiff nodes with backward closures.
OP_LAYERS = ("autodiff", "graph")
# Functions whose result is a dense adjacency matrix; its bytes are summed.
ADJACENCY_BUILDERS = ("graph.build_chain_adjacency", "graph.build_label_adjacency",
                      "graph.assemble_block_node", "graph.normalize_adjacency_node")


def hgcn_modules() -> list:
    """Every loaded module of the hgcn package, i.e. every import site."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hgcn" or name.startswith("hgcn."))]


def patch_everywhere(original, replacement, undo: list) -> None:
    """Point every hgcn module global bound to `original` at `replacement`."""
    for module in hgcn_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def restore(undo: list) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Tracer:
    """Accumulates per-op self/total seconds, tape sizes, adjacency bytes and GC time."""

    def __init__(self):
        self.phase = "setup"
        self.total = defaultdict(float)       # (phase, key) -> seconds
        self.self_time = defaultdict(float)   # (phase, key) -> seconds
        self.tape_nodes = defaultdict(int)    # phase -> nodes recorded on tapes
        self.adjacency_bytes = defaultdict(int)  # phase -> bytes, from result shapes
        self.gc_seconds = defaultdict(float)  # phase -> seconds
        self._stack = [0.0]                   # child seconds of each open call
        self._gc_start = 0.0

    def _timed(self, key, fn, wrap_backward=False, count_bytes=False):
        stack, total, self_time = self._stack, self.total, self.self_time
        bwd_key = key + ":bwd"

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                k = (self.phase, key)
                total[k] += elapsed
                self_time[k] += elapsed - children
            if wrap_backward and getattr(out, "_backward", None) is not None:
                out._backward = self._timed(bwd_key, out._backward)
            if count_bytes:
                self.adjacency_bytes[self.phase] += getattr(out, "value", out).nbytes
            return out

        return timed

    def _on_gc(self, event, info):
        if event == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_seconds[self.phase] += perf_counter() - self._gc_start

    @contextmanager
    def installed(self):
        """Wrap every public hgcn function and the listed methods; undo on exit."""
        undo: list = []
        # Import every layer before patching any: a module first imported
        # mid-patch would bind wrappers by name that restore() never sees.
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"hgcn.{layer}")
            except ImportError:
                continue
        try:
            for layer, module in modules.items():
                for name, fn in list(vars(module).items()):
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    key = f"{layer}.{name}"
                    wrapper = functools.wraps(fn)(self._timed(
                        key, fn, wrap_backward=layer in OP_LAYERS,
                        count_bytes=key in ADJACENCY_BUILDERS))
                    patch_everywhere(fn, wrapper, undo)
            for layer, cls_name, meth in METHODS:
                cls = getattr(sys.modules.get(f"hgcn.{layer}"), cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    continue
                setattr(cls, meth, functools.wraps(fn)(self._timed(
                    f"{layer}.{cls_name}.{meth}", fn)))
                undo.append((cls, meth, fn))
            tape = getattr(sys.modules.get("hgcn.autodiff"), "Tape", None)
            if tape is not None and "__exit__" in vars(tape):
                undo.append((tape, "__exit__", vars(tape)["__exit__"]))
                tape.__exit__ = self._counting_exit(vars(tape)["__exit__"])
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            restore(undo)

    def _counting_exit(self, exit_fn):
        def counting_exit(tape, *exc):
            self.tape_nodes[self.phase] += len(getattr(tape, "nodes", ()))
            return exit_fn(tape, *exc)
        return counting_exit

    def seconds(self, phases, keys, measure="self") -> float:
        table = self.self_time if measure == "self" else self.total
        return sum(table.get((p, k), 0.0) for p in phases for k in keys)

    def layer_self_seconds(self, phases, layer) -> float:
        prefix = layer + "."
        return sum(v for (p, k), v in self.self_time.items()
                   if p in phases and k.startswith(prefix))

    def top_self(self, phases, n=12) -> list[tuple[str, float]]:
        acc = defaultdict(float)
        for (p, k), v in self.self_time.items():
            if p in phases:
                acc[k] += v
        return sorted(acc.items(), key=lambda kv: -kv[1])[:n]
