"""In-memory span tracing around the public functions of each bathdd module.

The tracer wraps functions from outside the library: it replaces each listed
function in every ``bathdd`` module that holds a reference to it (imports bind
names at load time, so ``spectral.eig`` and ``zeno.expm`` are patched as well
as ``linalg.eig`` and ``linalg.expm``). Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# The layer boundaries, as "<module>.<public function>".
SPANS = (
    "linalg.eig",
    "linalg.expm",
    "linalg.trace_norm",
    "channel.extend_with_identity",
    "channel.to_superoperator",
    "channel.validate_cptp",
    "channel.choi",
    "spectral.analyze_peripheral",
    "spectral.peripheral_power",
    "classify.classify",
    "hamiltonian.adjoint_rep",
    "hamiltonian.schmidt",
    "hamiltonian.random_hamiltonian",
    "zeno.zeno_evolution",
    "zeno.dd_evolution",
    "zeno.zeno_hamiltonian",
    "zeno.dd_check",
    "zeno.suppression_check",
    "harness.sweep",
    "harness.reduced_choi_purity",
    "harness.choi_distance",
    "zoo.builtin",
    "cli.main",
)

OP_PREFIX = "op:"


def _zeno_step_shape(s_kick, h, t, n):
    """(superoperator size N, kick count n) of one kicked evolution."""
    return (int(s_kick.matrix.shape[0]), int(n))


# Spans that also record their arguments' shape, for computed kernel counts.
_NOTES = {"zeno.zeno_evolution": _zeno_step_shape}


class Tracer:
    """Records (name, parent, root, start, end, note) per call, in memory.

    Top-level benchmark operations open an ``op:<kind>`` span through
    :meth:`op`; every layer span inside it shares that operation's id as its
    root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, note=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else sid
        self.spans.append([name, parent, root, time.perf_counter(), None, note])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        sid = self._open(OP_PREFIX + kind)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        note_of = _NOTES.get(name)
        signature = inspect.signature(fn) if note_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = None
            if note_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                note = note_of(**bound.arguments)
            sid = self._open(name, note)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def install(self) -> None:
        """Patch every listed function in every loaded bathdd module."""
        owners = {name: importlib.import_module("bathdd." + name.split(".")[0]) for name in SPANS}
        modules = [m for n, m in sys.modules.items() if n == "bathdd" or n.startswith("bathdd.")]
        for name in SPANS:
            original = getattr(owners[name], name.split(".")[1])
            traced = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def summary(self) -> dict:
        """Per-span calls and self time, per-op-kind counts, and the traced wall time.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is one thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = {name: 0 for name in SPANS}
        self_s = {name: 0.0 for name in SPANS}
        ops: dict[str, int] = {}
        per_op_kind: dict[tuple[str, str], int] = {}
        wall = 0.0
        kind_of_root: dict[int, str] = {}
        step_matmuls = 0
        step_flops = 0.0
        for sid, (name, parent, root, start, end, note) in enumerate(self.spans):
            if name.startswith(OP_PREFIX):
                kind = name[len(OP_PREFIX):]
                kind_of_root[sid] = kind
                ops[kind] = ops.get(kind, 0) + 1
                wall += end - start
                continue
            calls[name] += 1
            self_s[name] += end - start - child_time[sid]
            key = (name, kind_of_root.get(root, ""))
            per_op_kind[key] = per_op_kind.get(key, 0) + 1
            if name == "zeno.zeno_evolution":
                size, n = note
                k = step_matmul_count(n)
                step_matmuls += k
                step_flops += 8.0 * size**3 * k
        return {
            "calls": calls,
            "self_s": self_s,
            "ops": ops,
            "per_op_kind": {f"{n}|{k}": c for (n, k), c in per_op_kind.items()},
            "wall_s": wall,
            "spans": len(self.spans),
            "step_matmuls": step_matmuls,
            "step_flops": step_flops,
        }

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, (name, parent, root, start, end, note) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "root": root,
                    "start": start, "end": end, "note": note,
                }) + "\n")


def step_matmul_count(n: int) -> int:
    """Complex matmuls of one kicked evolution: the step product E @ U plus
    the products numpy's ``matrix_power`` performs for n (repeated squaring:
    bit_length - 1 squarings and popcount - 1 accumulations)."""
    return 1 + (n.bit_length() - 1) + (bin(n).count("1") - 1)
