"""In-memory span recorder and the wrappers that put spans around pcattack.

The benchmark traces the program from outside: each wrapped function is
replaced, under the name its caller module looks it up by, with a wrapper
that records one span (name, start, end, parent, root) and, where the
boundary has one, a byte count.  Spans stay in memory and are written out
when the run ends.  A wrapped name that the program no longer has is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np


def array_bytes(obj) -> int:
    """Bytes of the arrays held by a returned value, computed from shapes."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item) for item in obj)
    if hasattr(obj, "__dict__"):
        return sum(int(v.nbytes) for v in vars(obj).values() if isinstance(v, np.ndarray))
    return 0


def _returned_bytes(args, kwargs, out) -> int:
    return array_bytes(out)


def _largest_argument_bytes(args, kwargs, out) -> int:
    return max((int(a.nbytes) for a in args if isinstance(a, np.ndarray)), default=0)


def _file_bytes(args, kwargs, out) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path) if path is not None else 0


# (module the caller looks the name up in, attribute, span name, byte counter)
WRAP_TABLE = (
    ("pcattack.linalg", "full_svd", "linalg.full_svd", _returned_bytes),
    ("pcattack.rank_one", "full_svd", "linalg.full_svd", _returned_bytes),
    ("pcattack.unconstrained", "full_svd", "linalg.full_svd", _returned_bytes),
    ("pcattack.oracle", "full_svd", "linalg.full_svd", _returned_bytes),
    ("pcattack.experiments", "full_svd", "linalg.full_svd", _returned_bytes),
    ("pcattack.pcr", "full_svd", "linalg.full_svd", _returned_bytes),
    ("pcattack.linalg", "principal_angles", "linalg.principal_angles", None),
    ("pcattack.rank_one", "attack_k_lt_rank", "rank_one.dispatch", None),
    ("pcattack.rank_one", "attack_full_rank", "rank_one.dispatch", None),
    ("pcattack.rank_one", "attack_low_rank", "rank_one.dispatch", None),
    ("pcattack.rank_one", "klt_rank_closed_form", "rank_one.closed_form", None),
    ("pcattack.rank_one", "predicted_theta", "rank_one.closed_form", None),
    ("pcattack.rank_one", "build_report", "rank_one.build_report", None),
    ("pcattack.unconstrained", "build_report", "rank_one.build_report", None),
    ("pcattack.unconstrained", "closed_form_lambda", "unconstrained.closed_form_lambda", None),
    ("pcattack.unconstrained", "lift_to_data_space", "unconstrained.lift_to_data_space",
     _returned_bytes),
    ("pcattack.oracle", "_batched_theta", "oracle.batched_theta", _largest_argument_bytes),
    ("pcattack.experiments", "eta_scale", "experiments.eta_scale", None),
    ("pcattack.pcr", "eta_scale", "experiments.eta_scale", None),
    ("pcattack.experiments", "attack_rank_one", "rank_one.attack_rank_one", None),
    ("pcattack.experiments", "attack_unconstrained", "unconstrained.attack_unconstrained", None),
    ("pcattack.pcr", "attack_rank_one", "rank_one.attack_rank_one", None),
    ("pcattack.pcr", "attack_unconstrained", "unconstrained.attack_unconstrained", None),
    ("pcattack.fileio", "read_matrix_csv", "fileio.read_matrix_csv", _file_bytes),
    ("pcattack.fileio", "write_matrix_csv", "fileio.write_matrix_csv", _file_bytes),
    ("pcattack.experiments", "read_matrix_csv", "fileio.read_matrix_csv", _file_bytes),
)


class Tracer:
    """Records spans; the program's functions are wrapped only inside ``installed()``.

    Spans nest by call order in one thread, so a span's parent is the span
    open when it started, and its root is the outermost one: the benchmark
    operation that caused it.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[dict] = []
        self._patches: list[tuple] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = {"id": self._next_id, "name": name,
                  "parent": parent["id"] if parent else None,
                  "root": parent["root"] if parent else self._next_id,
                  "start": time.perf_counter(), "end": None, **attrs}
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if counter is not None:
                    record["bytes"] = counter(args, kwargs, out)
                return out
        return traced

    @contextmanager
    def installed(self):
        """Patch every wrap target for the duration of the block."""
        for module_name, attr, name, counter in WRAP_TABLE:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                target = f"{module_name}.{attr}"
                if target not in self.absent:
                    self.absent.append(target)
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        try:
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "absent": self.absent}) + "\n")
            for record in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(record) + "\n")


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def layer_metrics(spans: list[dict], roots: list[dict]) -> dict[str, float]:
    """Per-layer figures from the spans under the benchmark's root spans.

    ``roots`` are the operation spans, each carrying ``units`` (attacks,
    oracle calls, sweep cells or PCR ratios) and ``trials``.  Times are
    reported per unit of the workload, so they compare with ``op_p50_ms``.
    A layer that did not run reads 0.
    """
    root_ids = {r["id"] for r in roots}
    inside = [s for s in spans if s["root"] in root_ids]
    self_t = _self_times(inside)
    by_id = {s["id"]: s for s in inside}
    units = sum(r["units"] for r in roots) or 1

    def spans_named(name):
        return [s for s in inside if s["name"] == name]

    def self_total(name):
        return sum(self_t[s["id"]] for s in spans_named(name))

    def dur(s):
        return s["end"] - s["start"]

    def under(span, ancestor_ids):
        while span["parent"] is not None:
            if span["parent"] in ancestor_ids:
                return True
            span = by_id[span["parent"]]
        return False

    def svd_calls_per(name):
        attacks = spans_named(name)
        if not attacks:
            return 0.0
        ids = {s["id"] for s in attacks}
        return sum(under(s, ids) for s in spans_named("linalg.full_svd")) / len(attacks)

    def oracle_rate(kind):
        calls = [r for r in roots if r["name"] == kind]
        elapsed = sum(dur(r) for r in calls)
        return sum(r["trials"] for r in calls) / elapsed if elapsed else 0.0

    oracle_roots = [r for r in roots if r["name"].startswith("oracle.")]
    oracle_ids = {r["id"] for r in oracle_roots}
    oracle_time = sum(dur(r) for r in oracle_roots)

    def oracle_share(name):
        if not oracle_time:
            return 0.0
        return sum(dur(s) for s in spans_named(name) if under(s, oracle_ids)) / oracle_time

    sweeps = [r for r in roots if r["name"] == "experiments.run_sweep"]
    pcrs = [r for r in roots if r["name"] == "pcr.attack_pcr"]
    pcr_ids = {r["id"] for r in pcrs}
    pcr_children = sum(dur(s) for s in inside if s["parent"] in pcr_ids and s["name"] in (
        "rank_one.attack_rank_one", "unconstrained.attack_unconstrained",
        "experiments.eta_scale"))

    def throughput(name):
        # File I/O happens in set-up and around CLI calls, outside any operation.
        calls = [s for s in spans if s["name"] == name]
        elapsed = sum(dur(s) for s in calls)
        return sum(s.get("bytes", 0) for s in calls) / elapsed / 1e6 if elapsed else 0.0

    return {
        "linalg.full_svd.calls_per_op": len(spans_named("linalg.full_svd")) / units,
        "linalg.full_svd.calls_per_op.rank_one": svd_calls_per("rank_one.attack_rank_one"),
        "linalg.full_svd.calls_per_op.unconstrained":
            svd_calls_per("unconstrained.attack_unconstrained"),
        "linalg.full_svd.self_ms": 1e3 * self_total("linalg.full_svd") / units,
        "linalg.full_svd.bytes_computed":
            sum(s.get("bytes", 0) for s in spans_named("linalg.full_svd")) / units,
        "linalg.principal_angles.self_ms": 1e3 * self_total("linalg.principal_angles") / units,
        "rank_one.dispatch.self_ms": 1e3 * self_total("rank_one.dispatch") / units,
        "rank_one.closed_form.self_us": 1e6 * self_total("rank_one.closed_form") / units,
        "rank_one.build_report.ms":
            1e3 * sum(dur(s) for s in spans_named("rank_one.build_report")) / units,
        "rank_one.build_report.self_ms": 1e3 * self_total("rank_one.build_report") / units,
        "unconstrained.closed_form_lambda.self_us":
            1e6 * self_total("unconstrained.closed_form_lambda") / units,
        "unconstrained.lift_to_data_space.self_ms":
            1e3 * self_total("unconstrained.lift_to_data_space") / units,
        "unconstrained.lift_to_data_space.bytes_computed":
            sum(s.get("bytes", 0) for s in spans_named("unconstrained.lift_to_data_space"))
            / units,
        "oracle.random_rank_one.trials_per_s": oracle_rate("oracle.random_rank_one"),
        "oracle.random_unconstrained.trials_per_s": oracle_rate("oracle.random_unconstrained"),
        "oracle.grid_search_angles.self_ms":
            1e3 * sum(self_t[r["id"]] for r in roots if r["name"] == "oracle.grid_search_angles")
            / units,
        "oracle.factor_share": oracle_share("linalg.full_svd"),
        "oracle.batched_theta.share": oracle_share("oracle.batched_theta"),
        "oracle.chunk_bytes_computed":
            max((s.get("bytes", 0) for s in spans_named("oracle.batched_theta")), default=0),
        "experiments.run_sweep.cell_ms":
            1e3 * sum(dur(r) for r in sweeps) / sum(r["units"] for r in sweeps) if sweeps else 0.0,
        "experiments.eta_scale.self_ms": 1e3 * self_total("experiments.eta_scale") / units,
        "pcr.refit_ms":
            1e3 * (sum(dur(r) for r in pcrs) - pcr_children) / sum(r["units"] for r in pcrs)
            if pcrs else 0.0,
        "fileio.read_matrix_csv.mb_per_s": throughput("fileio.read_matrix_csv"),
        "fileio.write_matrix_csv.mb_per_s": throughput("fileio.write_matrix_csv"),
    }
