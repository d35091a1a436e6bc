"""Span recorder and per-layer metrics for the traced benchmark run.

`Tracer.install()` replaces every public function of the zetachain layer
modules, wherever the package refers to it, by a wrapper that records a
span (name, start, end, parent, op) while tracing is enabled.  Because the
pipeline calls its own stages through module globals, the wrappers also
break `synthesize` down into completion, similarity, Householder and gauge
spans without any change to the package.  Spans live in flat arrays in
memory and are written out once, when the run ends.

A few functions also hand their arguments and results to `health()`,
which computes the numerical health readings after the op, outside the
timed interval and with tracing off.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "synthesis", "verification", "evolution", "zetaref", "design")

# functions whose arguments and results feed the health readings
_CAPTURED = frozenset(
    {
        "synthesis.orthogonal_completion",
        "synthesis.householder_tridiagonalize",
        "synthesis.synthesize",
        "verification.verify_synthesis",
        "evolution.evolve_spectral",
        "evolution.evolve_ode",
        "design.waveguide_design_json",
    }
)

# (name, unit, better, kind, source)
#   time  : median over the ops that call them of the seconds spent in the
#           named functions, callees included
#   calls : calls per op into functions whose name starts with the prefix
#   errors: calls into the prefix that raised, summed over the run
#   max / min / sum / per_op / median : a reading, see Readings
PER_LAYER = (
    ("core.spectrum_s", "s", "lower", "time", ("core.log_spectrum", "core.riemann_amplitudes")),
    ("core.calls", "calls/op", "lower", "calls", "core."),
    ("synthesis.synthesize_s", "s", "lower", "time", ("synthesis.synthesize",)),
    ("synthesis.calls", "calls/op", "lower", "calls", "synthesis."),
    ("synthesis.lanczos_s", "s", "lower", "time", ("synthesis.lanczos_synthesis",)),
    ("synthesis.errors", "count", "lower", "errors", "synthesis."),
    ("synthesis.completion_s", "s", "lower", "time", ("synthesis.orthogonal_completion",)),
    ("synthesis.similarity_s", "s", "lower", "time", ("synthesis.similarity_transform",)),
    ("synthesis.householder_s", "s", "lower", "time", ("synthesis.householder_tridiagonalize",)),
    ("synthesis.gauge_s", "s", "lower", "time", ("synthesis.gauge_fix",)),
    ("synthesis.orth_defect", "1", "lower", "max", "synthesis.orth_defect"),
    ("synthesis.tridiag_residual", "hbar_omega", "lower", "max", "synthesis.tridiag_residual"),
    ("synthesis.min_hopping", "hbar_omega", "higher", "min", "synthesis.min_hopping"),
    ("synthesis.oracle_gap", "hbar_omega", "lower", "max", "synthesis.oracle_gap"),
    ("verification.verify_s", "s", "lower", "time", ("verification.verify_synthesis",)),
    ("verification.eigh_s", "s", "lower", "time", ("verification.eigh_tridiagonal",)),
    ("verification.calls", "calls/op", "lower", "calls", "verification."),
    ("verification.failed", "count", "lower", "sum", "verification.failed"),
    ("verification.eig_err", "hbar_omega", "lower", "max", "verification.eig_err"),
    ("verification.overlap_abs_err", "1", "lower", "max", "verification.overlap_abs_err"),
    ("verification.overlap_rel_err", "1", "lower", "max", "verification.overlap_rel_err"),
    ("evolution.spectral_s", "s", "lower", "time", ("evolution.evolve_spectral",)),
    ("evolution.ode_s", "s", "lower", "time", ("evolution.evolve_ode",)),
    ("evolution.samples", "samples/op", "lower", "per_op", "evolution.samples"),
    ("evolution.rk4_steps", "steps/op", "lower", "per_op", "evolution.rk4_steps"),
    ("evolution.ode_norm_drift", "1", "lower", "max", "evolution.ode_norm_drift"),
    ("evolution.ode_spectral_dev", "1", "lower", "max", "evolution.ode_spectral_dev"),
    ("zetaref.hurwitz_s", "s", "lower", "time", ("zetaref.hurwitz_zeta",)),
    ("zetaref.hurwitz_calls", "calls/op", "lower", "calls", "zetaref.hurwitz_zeta"),
    ("zetaref.dev_over_bound", "1", "lower", "max", "zetaref.dev_over_bound"),
    ("design.spin_s", "s", "lower", "time", ("design.spin_chain_params",)),
    ("design.waveguide_s", "s", "lower", "time", ("design.waveguide_layout",)),
    ("design.json_s", "s", "lower", "time", ("design.waveguide_design_json",)),
    ("design.out_bytes", "bytes", "lower", "median", "design.out_bytes"),
    ("cli.import_s", "s", "lower", "median", "cli.import_s"),
    ("cli.synth_s", "s", "lower", "median", "cli.synth_s"),
    ("cli.verify_s", "s", "lower", "median", "cli.verify_s"),
    ("cli.simulate_s", "s", "lower", "median", "cli.simulate_s"),
    ("cli.domain_s", "s", "lower", "median", "cli.domain_s"),
    ("cli.design_s", "s", "lower", "median", "cli.design_s"),
    ("cli.design_spin_s", "s", "lower", "median", "cli.design_spin_s"),
    ("cli.simulate_n64_json_s", "s", "lower", "median", "cli.simulate_n64_json_s"),
    ("cli.design_kappa_fail_s", "s", "lower", "median", "cli.design_kappa_fail_s"),
    ("cli.out_bytes", "bytes", "lower", "median", "cli.out_bytes"),
    ("cli.exit_mismatch", "count", "lower", "sum", "cli.exit_mismatch"),
)


class Readings:
    """Health readings and counters, each folded by one rule.

    max/min keep the extreme value, sum and per_op add up, median keeps
    every sample.  Readings from a CLI child process merge in with the
    same rules.
    """

    def __init__(self):
        self.values = {}
        self.kinds = {}

    def _fold(self, kind, name, value):
        value = float(value)
        self.kinds[name] = kind
        if kind == "median":
            self.values.setdefault(name, []).append(value)
        elif name not in self.values:
            self.values[name] = value
        elif kind == "max":
            self.values[name] = max(self.values[name], value)
        elif kind == "min":
            self.values[name] = min(self.values[name], value)
        else:
            self.values[name] += value

    def max(self, name, value):
        self._fold("max", name, value)

    def min(self, name, value):
        self._fold("min", name, value)

    def add(self, name, value):
        self._fold("sum", name, value)

    def sample(self, name, value):
        self._fold("median", name, value)

    def merge(self, dump):
        for kind, name, value in dump:
            for v in value if kind == "median" else [value]:
                self._fold(kind, name, v)

    def dump(self):
        return [(self.kinds[name], name, value) for name, value in self.values.items()]


class Tracer:
    """In-memory span recorder with one flat array per span field."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.enabled = False
        self.op_id = -1
        self.captures = []

    def install(self):
        """Wrap the public functions of every layer wherever the package binds them."""
        importlib.import_module("zetachain.cli")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"zetachain.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "zetachain" or modname.startswith("zetachain."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        setattr(mod, attr, wrappers[val])

    def _name_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, name, fn):
        nid = self._name_index(name)
        capture = name in _CAPTURED

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.failed.append(0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
            if capture:
                self.captures.append((name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def take_captures(self):
        captures, self.captures = self.captures, []
        return captures

    def dump(self):
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "failed": self.failed.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }

    def merge(self, dump, op_id):
        """Append the spans of a child process as spans of op `op_id`."""
        offset = len(self.start)
        ids = [self._name_index(n) for n in dump["names"]]
        self.name_id.extend(ids[i] for i in dump["name_id"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in dump["parent"])
        self.op.extend(op_id for _ in dump["op"])
        self.failed.extend(dump["failed"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])

    def save(self, path):
        """Write every span: name, start, end, parent index, op and failure flag."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


def health(captures, readings):
    """Fold the health readings of one op's captured calls into `readings`."""
    from zetachain import eigh_tridiagonal, riemann_amplitudes
    from zetachain.evolution import DEFAULT_STEP

    for name, args, kwargs, result in captures:
        if name == "synthesis.orthogonal_completion":
            q = result
            readings.max("synthesis.orth_defect", np.abs(q.T @ q - np.eye(q.shape[0])).max())
        elif name == "synthesis.householder_tridiagonalize":
            tri, q, _ = result
            a = np.asarray(args[0], dtype=float)
            readings.max("synthesis.tridiag_residual", np.abs(q.T @ a @ q - tri.to_dense()).max())
        elif name == "synthesis.synthesize" and result.offdiagonal.size:
            readings.min("synthesis.min_hopping", result.offdiagonal.min())
        elif name == "verification.verify_synthesis":
            tri, params = args[0], args[1]
            readings.add("verification.failed", 0.0 if result.passed else 1.0)
            readings.max("verification.eig_err", result.max_eigenvalue_error)
            readings.max("verification.overlap_abs_err", result.max_overlap_error)
            c = riemann_amplitudes(params).amplitudes
            v0 = np.abs(eigh_tridiagonal(tri).eigenvectors[0, :])
            readings.max("verification.overlap_rel_err", (np.abs(v0 - c) / c).max())
        elif name == "evolution.evolve_spectral":
            readings.add("evolution.samples", result.times.size)
        elif name == "evolution.evolve_ode":
            _, series = result
            step = args[2] if len(args) > 2 else kwargs.get("step", DEFAULT_STEP)
            readings.add("evolution.samples", series.times.size)
            # sub-steps as evolve_ode takes them: ceil(span / step) per sample interval
            spans = np.diff(np.concatenate(([0.0], series.times)))
            spans = np.abs(spans[spans != 0.0])
            steps = np.maximum(np.ceil(spans / step - 1e-12), 1.0)
            readings.add("evolution.rk4_steps", steps.sum())
        elif name == "design.waveguide_design_json":
            readings.sample("design.out_bytes", len(result.encode()))


def per_layer_metrics(tracer, readings, n_ops):
    """Every PER_LAYER metric from the spans and readings of a traced run.

    A metric whose layer did not run in this workload reads 0.
    """
    n_names = len(tracer.names)
    names = tracer.names
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    op = np.frombuffer(tracer.op, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    failed = np.frombuffer(tracer.failed, dtype=np.int8)
    timed = op >= 0
    per_op_time = np.zeros((max(n_ops, 1), n_names))
    per_op_calls = np.zeros((max(n_ops, 1), n_names))
    np.add.at(per_op_time, (op[timed], nid[timed]), dur[timed])
    np.add.at(per_op_calls, (op[timed], nid[timed]), 1.0)
    errors = np.bincount(nid[timed & (failed == 1)], minlength=n_names)

    def columns(match):
        return [i for i, n in enumerate(names) if match(n)]

    out = {}
    for name, unit, _better, kind, source in PER_LAYER:
        if kind == "time":
            cols = columns(lambda n: n in source)
            ran = per_op_calls[:, cols].sum(axis=1) > 0
            value = float(np.median(per_op_time[ran][:, cols].sum(axis=1))) if ran.any() else 0.0
        elif kind == "calls":
            cols = columns(lambda n: n.startswith(source))
            value = float(per_op_calls[:, cols].sum()) / max(n_ops, 1)
        elif kind == "errors":
            value = float(sum(errors[i] for i in columns(lambda n: n.startswith(source))))
        else:
            raw = readings.values.get(source)
            if raw is None:
                value = 0.0
            elif kind == "median":
                value = statistics.median(raw)
            elif kind == "per_op":
                value = raw / max(n_ops, 1)
            else:
                value = raw
        out[name] = {"value": value, "unit": unit}
    return out
