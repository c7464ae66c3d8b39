"""Span tracing of werner_teleport from outside the package.

The tracer replaces each traced public function in every werner_teleport
module namespace that binds it (``protocol``, ``verify`` and ``cli`` import
with ``from .x import name``, so patching only the defining module would
miss their calls), and counts the package's ``numpy.linalg.eigvalsh``
calls. Spans are kept in memory as flat arrays and written out when the run
ends; past MAX_STORED_SPANS they still count towards calls and self time
but are not stored, which bounds memory. A span's self time is its duration
minus the time of the spans nested inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"
PACKAGE = "werner_teleport"
MAX_STORED_SPANS = 250_000


def load_layers() -> dict:
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_names(layers: dict) -> list[str]:
    """Every per-layer metric name, in the order the benchmark reports them."""
    names = []
    for row in layers["functions"]:
        names += [f"{row['name']}.calls", f"{row['name']}.self_s"]
    split = layers["split_by_class"]
    for fn in split["functions"]:
        for cls in split["classes"]:
            names += [f"{fn}.{cls}.calls", f"{fn}.{cls}.self_s"]
    names += [row["name"] for row in layers["counters"]]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


class Tracer:
    """Records one span per call of each traced function.

    ``op`` and ``cls`` are set by the caller before each benchmark
    operation; every span records them, so spans of one operation share
    an identifier and per-layer numbers can be split by input class.
    """

    def __init__(self, functions: list[str], classes: list[str]):
        self.functions = list(functions)
        self.classes = [""] + list(classes)
        self.op = -1
        self.cls = 0
        self.spans = 0
        self.start = array("d")
        self.end = array("d")
        self.name = array("h")
        self.parent = array("i")
        self.op_id = array("i")
        self.cls_id = array("b")
        n = len(self.functions)
        self.calls = [[0] * len(self.classes) for _ in range(n)]
        self.self_s = [[0.0] * len(self.classes) for _ in range(n)]
        self.open = [0] * n
        self.eigvalsh_calls = 0
        self.eigvalsh_in_run_protocol = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def set_class(self, cls: str | None) -> None:
        self.cls = self.classes.index(cls) if cls else 0

    def _wrap(self, fn, index: int):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.spans
            self.spans += 1
            if sid < MAX_STORED_SPANS:
                self.start.append(0.0)
                self.end.append(0.0)
                self.name.append(index)
                self.parent.append(stack[-1][0] if stack else -1)
                self.op_id.append(self.op)
                self.cls_id.append(self.cls)
            frame = [sid, 0.0]
            stack.append(frame)
            self.open[index] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.open[index] -= 1
                stack.pop()
                duration = t1 - t0
                if sid < MAX_STORED_SPANS:
                    self.start[sid] = t0
                    self.end[sid] = t1
                self.calls[index][self.cls] += 1
                self.self_s[index][self.cls] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def _count_eigvalsh(self, fn):
        run_protocol = self.functions.index("protocol.run_protocol")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            # Only calls made by the package: the benchmark's own reference
            # kernel also calls eigvalsh, outside every span.
            if self._stack:
                self.eigvalsh_calls += 1
            if self.open[run_protocol]:
                self.eigvalsh_in_run_protocol += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for index, qualified in enumerate(self.functions):
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(original, index)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(np.linalg, "eigvalsh", self._count_eigvalsh(np.linalg.eigvalsh))

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def metrics(self, layers: dict, overhead_ratio: float) -> dict[str, float]:
        values: dict[str, float] = {}
        for index, fn in enumerate(self.functions):
            values[f"{fn}.calls"] = sum(self.calls[index])
            values[f"{fn}.self_s"] = sum(self.self_s[index])
        split = layers["split_by_class"]
        for fn in split["functions"]:
            index = self.functions.index(fn)
            for cls in split["classes"]:
                c = self.classes.index(cls)
                values[f"{fn}.{cls}.calls"] = self.calls[index][c]
                values[f"{fn}.{cls}.self_s"] = self.self_s[index][c]
        run_protocol_calls = values["protocol.run_protocol.calls"]
        search_calls = values["analytics.minimax_search.calls"]
        values["density.eigvalsh.calls"] = self.eigvalsh_calls
        values["density.eigvalsh.per_run_protocol"] = (
            self.eigvalsh_in_run_protocol / run_protocol_calls if run_protocol_calls else 0.0)
        values["analytics.min_over_information.per_minimax_search"] = (
            values["analytics.min_over_information.calls"] / search_calls if search_calls else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write(self, path: Path) -> None:
        """Write every recorded span as flat arrays in one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path,
                 functions=np.array(self.functions), classes=np.array(self.classes),
                 name=np.frombuffer(self.name, dtype=np.int16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op_id, dtype=np.int32),
                 cls=np.frombuffer(self.cls_id, dtype=np.int8),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
