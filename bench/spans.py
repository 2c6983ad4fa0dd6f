"""Span tracing of selffield's layer functions, installed from outside.

``Tracer.active(run_id)`` replaces each target function, wherever a
selffield module holds it, by a wrapper that records a span (name, start,
end, parent, run id, thread and per-call facts such as FFT sizes), and puts
the originals back on exit.  Hot scalar functions (the localization
objective, the screened bracket, ``quad``) get a counter on the innermost
open span instead of a span of their own.  Spans stay in memory until
``write`` dumps them as JSON lines.  A target that no longer exists is
listed in ``missing``; the metrics that need it are then absent.

``layer_metrics`` turns the spans of one source (the traced units of a
workload, or one coverage workload) into the per-layer metrics.  Self time
is a span's duration minus the union of its child spans.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import sys
import threading
import time

# (module, attribute, span name, extra) -- extra(args, result) -> dict
SPAN_TARGETS = [
    ("dynamics", "step", "dynamics.step", None),
    ("dynamics", "diagnostics", "dynamics.diagnostics", None),
    ("dynamics", "_Workspace.fftn", "dynamics.fft", "fft"),
    ("dynamics", "_Workspace.ifftn", "dynamics.fft", "fft"),
    ("dynamics", "_Workspace.vector_potential_hat", "dynamics.field_solve", None),
    ("dynamics", "_Workspace.project_transverse", "dynamics.project_transverse", None),
    ("dynamics", "_potential_factor", "dynamics.potential_factor", None),
    ("dynamics", "_apply_mixed", "dynamics.mixed", None),
    ("dynamics", "_hamiltonian_apply", "dynamics.hamiltonian_apply", None),
    ("dynamics", "_Workspace.__init__", "dynamics.workspace", "workspace"),
    ("dynamics", "init_grid", "dynamics.init_grid", None),
    ("dynamics", "evolve", "dynamics.evolve", None),
    ("dynamics", "save_snapshot", "dynamics.snapshot.save", "snapshot"),
    ("dynamics", "load_snapshot", "dynamics.snapshot.load", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_write_output", "cli.write_output", "output"),
    ("localization", "minimize_radius", "localization.minimize_radius", None),
    ("localization", "sweep", "localization.sweep", "sweep"),
    ("atom", "atom_minimize", "atom.atom_minimize", None),
    ("energy_budget", "assemble_budget", "energy_budget.assemble_budget", None),
    ("validate", "run_validation", "validate.run_validation", None),
]
# (module, attribute, counter name): counted on the innermost open span
COUNT_TARGETS = [
    ("energy_budget", "localization_objective", "localization_objective"),
    ("atom", "screened_bracket", "screened_bracket"),
    ("coherent_field", "vector_potential_fourier", "vector_potential_fourier"),
    ("wavepacket", "quad", "quad"),
]
# the checks run_validation runs with --skip-dynamics, in report order
VALIDATE_CHECKS = [
    "projector_idempotence", "field_transversality", "form_factor_oracle",
    "uniform_ball_form_factor", "electrostatic_dual_path", "kinetic_dual_path",
    "coefficient_mean_potential", "coefficient_current_potential",
    "coefficient_efield", "coefficient_momentum", "localization_closed_form",
    "localization_reference", "virial_identity", "debroglie_mass_independence",
    "atom_limits", "atom_bracket_monotonicity", "budget_additivity",
]


def _fft_extra(args, result):
    a = args[1]
    return {"transforms": math.prod(a.shape[:-3]),
            "bytes": a.nbytes + result.nbytes}


def _workspace_extra(args, result):
    return {"bytes": sum(getattr(v, "nbytes", 0) for v in vars(args[0]).values())}


def _snapshot_extra(args, result):
    return {"bytes": os.path.getsize(args[2])}


def _output_extra(args, result):
    path, text = args[0], args[1]
    size = len(text.encode()) + (text[-1:] != "\n")
    if path is not None:
        size += os.path.getsize(path + ".meta.json")
    return {"bytes": size}


def _sweep_extra(args, result):
    return {"betas": len(result)}


EXTRAS = {"fft": _fft_extra, "workspace": _workspace_extra,
          "snapshot": _snapshot_extra, "output": _output_extra,
          "sweep": _sweep_extra}


def _targets():
    """(module, attribute, name, extra) of every wrap; extra "count" marks
    a counter, and every validate.check_* function gets a span."""
    validate = sys.modules.get("selffield.validate")
    names = sorted(vars(validate)) if validate is not None else []
    checks = [("validate", name, f"validate.check.{name[len('check_'):]}", None)
              for name in names if name.startswith("check_")]
    return ([(m, a, n, EXTRAS.get(e)) for m, a, n, e in SPAN_TARGETS] + checks
            + [(m, a, n, "count") for m, a, n in COUNT_TARGETS])


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "thread", "extra",
                 "counts")

    def __init__(self, name, parent, run):
        self.name, self.parent, self.run = name, parent, run
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.extra = None
        self.counts = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._run = None
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._count_lock = threading.Lock()

    # span stack -----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _parent(self, stack):
        """Innermost open span; a pool worker's first span hangs under the
        main thread's open span (the call that submitted the work)."""
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def _span_wrapper(self, name, fn, extra):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, tracer._parent(stack), tracer._run)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._parent(tracer._stack())
            if parent is not None:
                with tracer._count_lock:
                    parent.counts[name] = parent.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # installation ---------------------------------------------------------
    @contextlib.contextmanager
    def active(self, run_id: str):
        """Record spans under run_id while the block runs."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "selffield" or name.startswith("selffield.")]
        patches = []
        for module_name, attr, name, extra in _targets():
            owner_name, _, method = attr.rpartition(".")
            owner = sys.modules.get(f"selffield.{module_name}")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = (self._count_wrapper(name, original) if extra == "count"
                       else self._span_wrapper(name, original, extra))
            if owner_name:
                patches.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            # replace every module-level reference (re-exports, from-imports)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        self._run = run_id
        try:
            yield self
        finally:
            self._run = None
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "run": s.run,
                    "thread": s.thread, "extra": s.extra, "counts": s.counts},
                    sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _percentile(values, p):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(p / 100 * len(ordered)) - 1))]


class _Tree:
    def __init__(self, spans):
        self.spans = spans
        self.children = {id(s): [] for s in spans}
        for s in spans:
            if s.parent is not None and id(s.parent) in self.children:
                self.children[id(s.parent)].append(s)
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)

    def named(self, name):
        return self.by_name.get(name, [])

    def self_time(self, span):
        covered, last = 0.0, span.start
        for child in sorted(self.children[id(span)], key=lambda c: c.start):
            lo, hi = max(child.start, last), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                last = hi
        return (span.end - span.start) - covered

    def descendants(self, span):
        todo = list(self.children[id(span)])
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children[id(s)])

    def under(self, roots, name):
        """Spans called name below any of roots."""
        return [d for r in roots for d in self.descendants(r) if d.name == name]

    def count(self, roots, counter):
        return sum(s.counts.get(counter, 0)
                   for r in roots for s in [r, *self.descendants(r)])


def _dur(span):
    return span.end - span.start


def layer_metrics(spans, units):
    """Per-layer metrics of one source; units = timed units among its spans.

    Each metric appears only if the spans that define it exist.
    """
    tree = _Tree(spans)
    out = {}
    in_units = {s for s in spans if not s.run.endswith("/setup")}

    steps = tree.named("dynamics.step")
    if steps:
        n = len(steps)
        mean_step = sum(map(_dur, steps)) / n
        out["dynamics.step.s_p50"] = (statistics.median(map(_dur, steps)), "s")
        out["dynamics.step.s_p90"] = (_percentile(map(_dur, steps), 90), "s")
        out["dynamics.step.self_s"] = (statistics.median(map(tree.self_time, steps)), "s")
        ffts = tree.under(steps, "dynamics.fft")
        if ffts:
            fft_s = sum(map(_dur, ffts)) / n
            out["dynamics.fft.s_per_step"] = (fft_s, "s")
            out["dynamics.fft.share_of_step"] = (fft_s / mean_step, "ratio")
            out["dynamics.fft.calls_per_step"] = (len(ffts) / n, "count")
            out["dynamics.fft.transforms_per_step"] = (
                sum(f.extra["transforms"] for f in ffts) / n, "count")
            out["dynamics.fft.bytes_per_step"] = (
                sum(f.extra["bytes"] for f in ffts) / n, "bytes")
        for phase, with_share in (("field_solve", False), ("project_transverse", True),
                                  ("potential_factor", False), ("mixed", True)):
            spans_in = tree.under(steps, f"dynamics.{phase}")
            if spans_in:
                phase_s = sum(map(tree.self_time, spans_in)) / n
                out[f"dynamics.{phase}.s_per_step"] = (phase_s, "s")
                if with_share:
                    out[f"dynamics.{phase}.share_of_step"] = (phase_s / mean_step, "ratio")

    diags = tree.named("dynamics.diagnostics")
    if diags:
        out["dynamics.diagnostics.s_p50"] = (statistics.median(map(_dur, diags)), "s")
        out["dynamics.diagnostics.self_s"] = (
            statistics.median(map(tree.self_time, diags)), "s")
        ffts = tree.under(diags, "dynamics.fft")
        if ffts:
            out["dynamics.diagnostics.fft_calls"] = (len(ffts) / len(diags), "count")
            out["dynamics.diagnostics.fft_transforms"] = (
                sum(f.extra["transforms"] for f in ffts) / len(diags), "count")
    _median_of(out, tree, "dynamics.hamiltonian_apply", "dynamics.hamiltonian_apply.s")

    builds = tree.named("dynamics.workspace")
    if builds:
        out["dynamics.workspace.builds"] = (
            sum(1 for s in builds if s in in_units) / units, "count")
        out["dynamics.workspace.build_s"] = (statistics.median(map(_dur, builds)), "s")
        out["dynamics.workspace.bytes"] = (max(s.extra["bytes"] for s in builds), "bytes")
    _median_of(out, tree, "dynamics.init_grid", "dynamics.init_grid.s")
    _median_of(out, tree, "dynamics.snapshot.save", "dynamics.snapshot.save_s")
    _median_of(out, tree, "dynamics.snapshot.load", "dynamics.snapshot.load_s")
    saves = tree.named("dynamics.snapshot.save")
    if saves:
        out["dynamics.snapshot.bytes"] = (max(s.extra["bytes"] for s in saves), "bytes")

    mains = tree.named("cli.main")
    if mains:
        out["cli.main.self_s"] = (statistics.median(map(tree.self_time, mains)), "s")
    _median_of(out, tree, "cli.write_output", "cli.write_output.s")
    writes = tree.named("cli.write_output")
    if writes:
        out["cli.output.bytes"] = (
            statistics.median_low(s.extra["bytes"] for s in writes), "bytes")

    solves = tree.named("localization.minimize_radius")
    if solves:
        out["localization.minimize_radius.s"] = (statistics.median(map(_dur, solves)), "s")
        out["localization.objective_evals_per_solve"] = (
            tree.count(solves, "localization_objective") / len(solves), "count")
    sweeps = tree.named("localization.sweep")
    if sweeps:
        out["localization.sweep.s_per_beta"] = (
            sum(map(_dur, sweeps)) / sum(s.extra["betas"] for s in sweeps), "s")
    atoms = tree.named("atom.atom_minimize")
    if atoms:
        out["atom.atom_minimize.s"] = (statistics.median(map(_dur, atoms)), "s")
        out["atom.screened_bracket.calls_per_solve"] = (
            tree.count(atoms, "screened_bracket") / len(atoms), "count")
    _median_of(out, tree, "energy_budget.assemble_budget", "energy_budget.assemble_budget.s")
    validations = tree.named("validate.run_validation")
    if validations:
        out["coherent_field.vector_potential_fourier.calls"] = (
            sum(s.counts.get("vector_potential_fourier", 0) for s in in_units) / units,
            "count")
        out["validate.quad_calls"] = (tree.count(validations, "quad") / len(validations),
                                      "count")
    for check in VALIDATE_CHECKS:
        _median_of(out, tree, f"validate.check.{check}", f"validate.check.{check}.s")
    return {name: (float(value), unit) for name, (value, unit) in out.items()}


def _median_of(out, tree, span_name, metric):
    spans = tree.named(span_name)
    if spans:
        out[metric] = (statistics.median(map(_dur, spans)), "s")
