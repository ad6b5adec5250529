"""Outside-in layer tracer for the finharm benchmark.

The tracer never edits the package. For each traced layer function it looks
the function up in its defining module (falling back to the package
namespace, so a function that moved between modules is still found), wraps
it, and rebinds every ``finharm.*`` module attribute that holds the same
object. That catches ``from .x import f`` copies and lazy imports that read a
module attribute at call time. A function that no longer exists is recorded
as absent and its metrics read 0; it is never an error.

Spans are kept in memory as flat arrays (function id, operation, parent span,
start, end). Self time is a span's duration minus the durations of its direct
child spans, which are nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np


def _pair_key(table, U, psi, *rest, **kw):
    return (U.members, psi.member_values.tobytes())


def _kernel_key(table, pi, U, psi):
    return (U.members, psi.member_values.tobytes(), int(pi))


def _stream_key(G, seed, index):
    return (int(seed), int(index))


def _subgroup_key(U):
    return U.members


def _text_bytes(text) -> int:
    return len(text.encode())


# (module, qualified name, key function for useful_ratio, size function for .bytes)
LAYERS: tuple[tuple[str, str, Callable | None, Callable | None], ...] = (
    ("cli", "main", None, None),
    ("reports", "build_report", None, None),
    ("reports", "SweepReport.rendered", None, _text_bytes),
    ("groups", "make_named_group", None, None),
    ("groups", "enumerate_subgroups", None, None),
    ("groups", "subgroup_closure", None, None),
    ("characters", "character_table", None, None),
    ("characters", "verify_orthogonality", None, None),
    ("characters", "linear_characters", _subgroup_key, None),
    ("sampling", "random_test_functions", None, None),
    ("sampling", "keyed_test_function", _stream_key, None),
    ("harmonic", "whittaker_kernel", _kernel_key, None),
    ("harmonic", "generalized_plancherel_check_batch", None, None),
    ("harmonic", "plancherel_invert_at_identity", None, None),
    ("induction", "kernel_multiplicity_identity_check", _pair_key, None),
    ("induction", "multiplicity_frobenius", None, None),
    ("induction", "conjecture_probe", None, None),
)

# scipy's Schur decomposition, counted as the eigensplit attempts of
# characters.character_table; it is foreign code, so it is found in scipy.
SCHUR = "characters.schur"

# ratio metrics: (name, numerator span, denominator span)
PER_CALL = (
    ("groups.enumerate_subgroups.calls_per_report", "groups.enumerate_subgroups", "reports.build_report"),
    ("characters.schur.calls_per_table", SCHUR, "characters.character_table"),
)


def span_names() -> list[str]:
    return [f"{mod}.{qual}" for mod, qual, _, _ in LAYERS] + [SCHUR]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit, in a fixed order."""
    units: dict[str, str] = {}
    for span in span_names():
        units.update({f"{span}.calls": "count", f"{span}.self_s": "s", f"{span}.total_s": "s"})
    units.update({f"{mod}.{qual}.bytes": "bytes" for mod, qual, _, size in LAYERS if size})
    units.update({f"{mod}.{qual}.useful_ratio": "ratio" for mod, qual, key, _ in LAYERS if key})
    units.update({name: "ratio" for name, _, _ in PER_CALL})
    return units


def _finharm_modules() -> list[Any]:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "finharm" or name.startswith("finharm."))
    ]


def _rebind(original: Any, wrapper: Any, extra_modules: tuple[Any, ...] = ()) -> None:
    """Point every module attribute holding `original` at `wrapper`."""
    for mod in _finharm_modules() + list(extra_modules):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Tracer:
    """Wraps the layer functions and records one span per call."""

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.names: list[str] = []
        self.absent: list[str] = []
        self._fid = array("i")
        self._op = array("i")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[int] = []
        self._current_op = -1
        self._keys: dict[int, set] = defaultdict(set)
        self._distinct: dict[int, int] = defaultdict(int)
        self._keyed_calls: dict[int, int] = defaultdict(int)
        self._unkeyable: set[int] = set()
        self._sizes: dict[int, int] = defaultdict(int)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("finharm")
        for mod_name, qual, key, size in self.layers:
            name = f"{mod_name}.{qual}"
            fid = self._register(name)
            owner, attr, original = self._lookup(mod_name, qual)
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(fid, original, key, size)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)
        self._install_schur()

    def _install_schur(self) -> None:
        fid = self._register(SCHUR)
        try:
            linalg = importlib.import_module("scipy.linalg")
        except ImportError:
            self.absent.append(SCHUR)
            return
        original = getattr(linalg, "schur", None)
        if original is None:
            self.absent.append(SCHUR)
            return
        _rebind(original, self._wrap(fid, original, None, None), (linalg,))

    def _register(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    @staticmethod
    def _lookup(mod_name: str, qual: str) -> tuple[Any, str, Any]:
        """(owner, attribute, object) for a layer, or (None, "", None)."""
        head, _, rest = qual.partition(".")
        candidates = []
        try:
            candidates.append(importlib.import_module(f"finharm.{mod_name}"))
        except ImportError:
            pass
        candidates.append(sys.modules["finharm"])
        for mod in candidates:
            obj = getattr(mod, head, None)
            if obj is None:
                continue
            if not rest:
                return mod, head, obj
            if isinstance(obj, type) and isinstance(obj.__dict__.get(rest), types.FunctionType):
                return obj, rest, obj.__dict__[rest]
        return None, "", None

    def _wrap(self, fid: int, fn: Callable, key: Callable | None, size: Callable | None):
        fids, ops, parents, t0s, t1s = self._fid, self._op, self._parent, self._t0, self._t1
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                tracer._note_key(fid, key, args, kwargs)
            idx = len(fids)
            fids.append(fid)
            ops.append(tracer._current_op)
            parents.append(stack[-1] if stack else -1)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            t0s[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if size is not None:
                tracer._sizes[fid] += size(result)
            return result

        return traced

    def _note_key(self, fid: int, key: Callable, args, kwargs) -> None:
        try:
            k = key(*args, **kwargs)
        except (TypeError, AttributeError, ValueError):
            self._unkeyable.add(fid)  # signature changed: ratio reported absent
            return
        self._keyed_calls[fid] += 1
        seen = self._keys[fid]
        if k not in seen:
            seen.add(k)
            self._distinct[fid] += 1

    def begin_op(self, index: int) -> None:
        """Start a new operation; waste keys are scoped to one operation."""
        self._current_op = index
        self._keys.clear()

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        r = len(self.names)
        fid = np.array(self._fid, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._t1, dtype=np.float64) - np.array(self._t0, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(fid, minlength=r)
        total = np.bincount(fid, weights=dur, minlength=r)
        self_sum = np.bincount(fid, weights=self_time, minlength=r)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_sum[i])
            out[f"{name}.total_s"] = float(total[i])
        for i, (mod, qual, key, size) in enumerate(self.layers):
            name = f"{mod}.{qual}"
            if size:
                out[f"{name}.bytes"] = int(self._sizes[i])
            if key:
                keyed = self._keyed_calls[i]
                # no keyed call means nothing was wasted
                out[f"{name}.useful_ratio"] = self._distinct[i] / keyed if keyed else 1.0
        for metric, num, den in PER_CALL:
            d = out[f"{den}.calls"]
            out[metric] = out[f"{num}.calls"] / d if d else 0.0
        return out

    def callers(self, name: str) -> set[str]:
        """Names of the spans that directly enclosed a span of `name`."""
        fid = self.names.index(name)
        return {
            self.names[self._fid[p]]
            for f, p in zip(self._fid, self._parent)
            if f == fid and p >= 0
        }

    def absent_metrics(self) -> list[str]:
        """Spans and ratios that could not be measured in this build."""
        missing = list(self.absent)
        for i in sorted(self._unkeyable):
            missing.append(f"{self.names[i]}.useful_ratio")
        return missing
