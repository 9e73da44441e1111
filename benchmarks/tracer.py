"""Spans around calls into qnbench's public functions, from outside the package.

``Tracer.install`` replaces each listed function or method with a wrapper,
both in its home module and wherever another ``qnbench`` module (or a
module-level dict such as ``acceptance.CRITERIA``) holds it by name.  Each
call records a span (name, start, end, parent span, job id) in flat arrays
kept in memory; counts are taken from return values at the same boundary.
``uninstall`` puts every original back.  Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Per-dimension basic-construction timings are reported for these algebra
# dimensions, the ones the vn-large documents use.
VN_DIMS = (16, 22, 25, 34, 36)


def _orbit(c, args, kwargs, r):
    c["orbits.cosets_explored"] += r.explored
    c["orbits.closed"] += bool(r.closed)


def _qn1(c, args, kwargs, r):
    c["orbits.decided"] += r.status != "unknown"


def _cover(c, args, kwargs, r):
    c["certificates.cover_size_sum"] += r.cover_size


def _ball(c, args, kwargs, r):
    c["groups.ball_elements"] += len(r)


def _diagnose(c, args, kwargs, r):
    c["conditions.ball_rows"] += len(r.gamma)


def _c1(c, args, kwargs, r):
    c["conditions.c1_conjugates"] += r.count


def _sweep(c, args, kwargs, r):
    sub, _, generators = args[:3]
    c["bimodule.swept"] += len(generators) * sub.dim
    c["bimodule.kept"] += r.length


def _basic(c, args, kwargs, r):
    dim = r.algebra.dim
    c["basic.span_bytes"] += dim ** 4 * 16
    c["basic.dim_of_call"].append(dim)


def _herm(c, args, kwargs, r):
    c["wahp.last_herm_dim"] = len(r)


def _gap(c, args, kwargs, r):
    c["wahp.optimizer_iterations"] += r.iterations
    c["wahp.converged"] += bool(r.converged)
    c["wahp.exact_zero"] += bool(r.exact_zero)
    if not r.exact_zero:
        config = args[4] if len(args) > 4 else kwargs.get("config")
        points = config.oracle_points if config is not None else 10000
        dim_h = c["wahp.last_herm_dim"]
        if 0 < dim_h <= 2:  # the oracle walks a torus grid in low dimension
            side = max(2, int(round(points ** (1.0 / dim_h))))
            points = side ** dim_h
        c["wahp.oracle_points"] += points if dim_h else 0


# (module, attribute path, span name, count hook)
TARGETS = [
    ("orbits", "orbit_bfs", "orbits.orbit_bfs", _orbit),
    ("orbits", "qn1_membership", "orbits.qn1_membership", _qn1),
    ("subgroups", "coset_key", "subgroups.coset_key", None),
    ("subgroups", "is_subgroup_member", "subgroups.is_subgroup_member", None),
    ("subgroups", "coset_equal", "subgroups.coset_equal", None),
    ("certificates", "certificate_from_cover", "certificates.certificate_from_cover", _cover),
    ("certificates", "replay_certificate", "certificates.replay_certificate", None),
    ("stallings", "free_qn1_decide", "stallings.free_qn1_decide", None),
    ("stallings", "build_subgroup_graph", "stallings.build_subgroup_graph", None),
    ("coset_table", "enumerate_cosets", "coset_table.enumerate_cosets", None),
    ("files", "load_group_inclusion", "files.load_group_inclusion", None),
    ("files", "load_matrix_inclusion", "files.load_matrix_inclusion", None),
    ("groups", "enumerate_ball", "groups.enumerate_ball", _ball),
    ("conditions", "diagnose_inclusion", "conditions.diagnose_inclusion", _diagnose),
    ("conditions", "check_c1", "conditions.check_c1", _c1),
    ("conditions", "check_c2", "conditions.check_c2", None),
    ("conditions", "normality_test", "conditions.normality_test", None),
    ("expectations", "subalgebra_closure", "expectations.subalgebra_closure", None),
    ("expectations", "SubalgebraHandle.project", "expectations.project", None),
    ("matrixalg", "AlgebraElement.sup_norm", "matrixalg.sup_norm", None),
    ("matrixalg", "spectral_calculus", "matrixalg.spectral_calculus", None),
    ("bimodule", "orthonormal_basis", "bimodule.orthonormal_basis", _sweep),
    ("bimodule", "module_dimension", "bimodule.module_dimension", None),
    ("basic", "basic_construction", "basic.basic_construction", _basic),
    ("basic", "qn1_module_test", "basic.qn1_module_test", None),
    ("basic", "BasicConstruction.pull_down", "basic.pull_down", None),
    ("corners", "tensor_module_check", "corners.tensor_module_check", None),
    ("corners", "cutdown_comparison", "corners.cutdown_comparison", None),
    ("wahp", "hermitian_basis", "wahp.hermitian_basis", _herm),
    ("wahp", "wahp_gap", "wahp.wahp_gap", _gap),
    ("cli", "run_group_analysis", "cli.run_group_analysis", None),
    ("cli", "run_vn_analysis", "cli.run_vn_analysis", None),
    ("cli", "run_verify_paper", "cli.run_verify_paper", None),
] + [("acceptance", f"criterion_{n}", f"acceptance.criterion_{n}", None) for n in range(1, 10)]


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = defaultdict(float)
        self.counters["basic.dim_of_call"] = []
        self.job = -1
        # per-job factors from raw to scaled seconds, set after the traced pass
        self.job_scale = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, name: str, hook):
        name_id = self.name_ids[name] = len(self.names)
        self.names.append(name)
        spans_name, spans_parent, spans_job = self.span_name, self.span_parent, self.span_job
        spans_start, spans_end = self.span_start, self.span_end
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(name_id)
            spans_parent.append(stack[-1] if stack else -1)
            spans_job.append(tracer.job)
            spans_start.append(0.0)
            spans_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans_start[idx] = start
                spans_end[idx] = end
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "qnbench" or key.startswith("qnbench.")]
        for module_name, path, name, hook in TARGETS:
            home = importlib.import_module(f"qnbench.{module_name}")
            if "." in path:  # a method: patch the class attribute
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(original, name, hook), original)
                continue
            original = getattr(home, path)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper, original)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                self._patched.append((value, key, original, True))

    def _set(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, False))

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._patched):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.span_job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def _durations(self, a) -> np.ndarray:
        duration = a["end"] - a["start"]
        if self.job_scale is not None:
            duration = duration * np.asarray(self.job_scale)[a["job"]]
        return duration

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        duration = self._durations(a)
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        own = duration - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = a["name"] == name_id
            out[name] = {"calls": int(mask.sum()), "total_s": float(duration[mask].sum()),
                         "self_s": float(own[mask].sum())}
        return out

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of ``name`` made directly from a ``parent`` span."""
        a = self.arrays()
        idx = np.flatnonzero(a["name"] == self.name_ids[name])
        parents = a["parent"][idx]
        parents = parents[parents >= 0]
        return int((a["name"][parents] == self.name_ids[parent]).sum())

    def dim_seconds(self) -> dict:
        """Inclusive basic-construction seconds per algebra dimension."""
        a = self.arrays()
        name_id = self.name_ids["basic.basic_construction"]
        idx = np.flatnonzero(a["name"] == name_id)
        duration = self._durations(a)
        out = defaultdict(float)
        for i, dim in zip(idx, self.counters["basic.dim_of_call"]):
            out[dim] += float(duration[i])
        return out

    def write(self, path) -> None:
        scale = np.asarray(self.job_scale if self.job_scale is not None else [], dtype=float)
        np.savez_compressed(path, names=np.array(self.names), job_scale=scale, **self.arrays())


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


# (metric name, unit)
PER_LAYER = [
    ("orbits.orbit_bfs.calls", "count"), ("orbits.orbit_bfs.self_s", "s"),
    ("orbits.cosets_explored", "count"), ("orbits.cosets_per_s", "1/s"),
    ("orbits.closed_share", "ratio"), ("orbits.qn1_membership.calls", "count"),
    ("orbits.qn1_membership.self_s", "s"), ("orbits.decided_share", "ratio"),
    ("subgroups.coset_key.calls", "count"), ("subgroups.coset_key.self_s", "s"),
    ("subgroups.is_subgroup_member.calls", "count"),
    ("subgroups.is_subgroup_member.self_s", "s"), ("subgroups.coset_equal.calls", "count"),
    ("certificates.certificate_from_cover.calls", "count"),
    ("certificates.certificate_from_cover.self_s", "s"),
    ("certificates.replay_certificate.calls", "count"),
    ("certificates.replay_certificate.self_s", "s"),
    ("certificates.cover_size_sum", "count"),
    ("stallings.free_qn1_decide.calls", "count"), ("stallings.free_qn1_decide.self_s", "s"),
    ("stallings.build_subgroup_graph.self_s", "s"), ("coset_table.enumerate_cosets.self_s", "s"),
    ("files.load_group_inclusion.self_s", "s"), ("files.load_matrix_inclusion.self_s", "s"),
    ("groups.enumerate_ball.self_s", "s"), ("groups.ball_elements", "count"),
    ("conditions.diagnose_inclusion.self_s", "s"), ("conditions.check_c1.calls", "count"),
    ("conditions.check_c1.self_s", "s"), ("conditions.c1_conjugates", "count"),
    ("conditions.check_c2.self_s", "s"), ("conditions.normality_test.self_s", "s"),
    ("conditions.verdict_reuse_share", "ratio"),
    ("expectations.subalgebra_closure.calls", "count"),
    ("expectations.subalgebra_closure.self_s", "s"), ("expectations.project.calls", "count"),
    ("matrixalg.sup_norm.calls", "count"), ("matrixalg.spectral_calculus.calls", "count"),
    ("bimodule.orthonormal_basis.calls", "count"), ("bimodule.orthonormal_basis.self_s", "s"),
    ("bimodule.swept", "count"), ("bimodule.kept", "count"), ("bimodule.kept_ratio", "ratio"),
    ("bimodule.module_dimension.calls", "count"),
    ("basic.basic_construction.calls", "count"), ("basic.basic_construction.self_s", "s"),
] + [(f"basic.basic_construction.s.dim{d}", "s") for d in VN_DIMS] + [
    ("basic.span_bytes", "bytes"), ("basic.qn1_module_test.self_s", "s"),
    ("basic.pull_down.calls", "count"), ("basic.pull_down.self_s", "s"),
    ("corners.tensor_module_check.self_s", "s"), ("corners.cutdown_comparison.self_s", "s"),
    ("wahp.wahp_gap.calls", "count"), ("wahp.wahp_gap.self_s", "s"),
    ("wahp.optimizer_iterations", "count"), ("wahp.oracle_points", "count"),
    ("wahp.converged_share", "ratio"), ("wahp.exact_zero_share", "ratio"),
] + [(f"acceptance.criterion_{n}.s", "s") for n in range(1, 10)] + [
    ("cli.run_group_analysis.self_s", "s"), ("cli.run_vn_analysis.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
]


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Every PER_LAYER metric as ``{name: value}`` for one traced pass."""
    s = tracer.summary()
    c = tracer.counters

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return s.get(name, {}).get("total_s", 0.0)

    values = {}
    for metric, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls(base)
        elif field == "self_s":
            values[metric] = self_s(base)
        elif metric.startswith("acceptance.criterion_"):
            values[metric] = total_s(base)
    dims = tracer.dim_seconds()
    for d in VN_DIMS:
        values[f"basic.basic_construction.s.dim{d}"] = dims.get(d, 0.0)
    bfs_calls, gap_calls = calls("orbits.orbit_bfs"), calls("wahp.wahp_gap")
    values.update({
        "orbits.cosets_explored": c["orbits.cosets_explored"],
        "orbits.cosets_per_s": _ratio(c["orbits.cosets_explored"], total_s("orbits.orbit_bfs")),
        "orbits.closed_share": _ratio(c["orbits.closed"], bfs_calls),
        "orbits.decided_share": _ratio(c["orbits.decided"], calls("orbits.qn1_membership")),
        "certificates.cover_size_sum": c["certificates.cover_size_sum"],
        "groups.ball_elements": c["groups.ball_elements"],
        "conditions.c1_conjugates": c["conditions.c1_conjugates"],
        "conditions.verdict_reuse_share": (
            1.0 - _ratio(tracer.calls_under("orbits.qn1_membership",
                                            "conditions.diagnose_inclusion"),
                         c["conditions.ball_rows"])
            if c["conditions.ball_rows"] else 0.0),
        "bimodule.swept": c["bimodule.swept"],
        "bimodule.kept": c["bimodule.kept"],
        "bimodule.kept_ratio": _ratio(c["bimodule.kept"], c["bimodule.swept"]),
        "basic.span_bytes": c["basic.span_bytes"],
        "wahp.optimizer_iterations": c["wahp.optimizer_iterations"],
        "wahp.oracle_points": c["wahp.oracle_points"],
        "wahp.converged_share": _ratio(c["wahp.converged"], gap_calls),
        "wahp.exact_zero_share": _ratio(c["wahp.exact_zero"], gap_calls),
        "trace.spans": len(tracer.span_name),
        "trace.overhead_s": overhead_s,
    })
    return {metric: values[metric] for metric, _ in PER_LAYER}


def module_table(tracer: Tracer) -> list:
    """(module, self seconds, spans) rows, largest self time first."""
    rows = defaultdict(lambda: [0.0, 0])
    for name, entry in tracer.summary().items():
        module = name.split(".")[0]
        rows[module][0] += entry["self_s"]
        rows[module][1] += entry["calls"]
    return sorted(((m, v[0], v[1]) for m, v in rows.items()), key=lambda r: -r[1])
