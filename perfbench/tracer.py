"""Outside-in tracing of sdse_lab's public functions.

The tracer replaces each traced function with a wrapper at every place the
function can be looked up: the defining module, every module that bound the
name with ``from ... import``, and the package namespace. Methods are patched
on their class, which every caller shares. Nothing under ``src/`` is edited;
``uninstall`` puts every original object back.

Each wrapped call records a span (trace id, span id, parent span id, name,
start ns, end ns) in memory. Calls and self time (span duration minus the time
covered by child spans) are aggregated on the fly; the raw spans are written
only when the run ends (``write_spans``).
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time

import numpy as np

# (module, attribute path, metric name). The metric name is the module without
# the package prefix plus the function's qualified name, except where a method
# stands for a step of its own (the solver's constructor is its factorization).
TARGETS = (
    ("oracle", "NoiseOracle.predict", "oracle.NoiseOracle.predict"),
    ("oracle", "NoiseOracle.density_bundle", "oracle.NoiseOracle.density_bundle"),
    ("oracle", "forward_diffuse", "oracle.forward_diffuse"),
    ("guidance", "term_residual", "guidance.term_residual"),
    ("samplers", "timestep_sequence", "samplers.timestep_sequence"),
    ("optimize", "optimize_point", "optimize.optimize_point"),
    ("optimize", "Trajectory.to_csv", "optimize.Trajectory.to_csv"),
    ("experiments", "run_full_schedule", "experiments.run_full_schedule"),
    ("experiments", "convergence_check", "experiments.convergence_check"),
    ("experiments", "run_mesh_edit", "experiments.run_mesh_edit"),
    ("experiments", "region_dispersion", "experiments.region_dispersion"),
    ("experiments", "mode_distance_of_regions", "experiments.mode_distance_of_regions"),
    ("views", "make_view", "views.make_view"),
    ("views", "render_view", "views.render_view"),
    ("views", "backprop_view", "views.backprop_view"),
    ("views", "target_residual", "views.target_residual"),
    ("views", "region_weights", "views.region_weights"),
    ("views", "allocate_views", "views.allocate_views"),
    ("views", "edit_step", "views.edit_step"),
    ("views", "SmoothedStepSolver.__init__", "views.SmoothedStepSolver.factor"),
    ("views", "SmoothedStepSolver.step_delta", "views.SmoothedStepSolver.step_delta"),
    ("mesh", "LatentMesh.with_codes", "mesh.LatentMesh.with_codes"),
    ("mesh", "smoothness_loss", "mesh.smoothness_loss"),
    ("mesh", "build_laplacian", "mesh.build_laplacian"),
    ("plots", "plot_trajectories_svg", "plots.plot_trajectories_svg"),
    ("plots", "density_grid", "plots.density_grid"),
    ("plots", "marching_squares", "plots.marching_squares"),
    ("configs", "parse_toy_config", "configs.parse_toy_config"),
    ("configs", "parse_mesh_config", "configs.parse_mesh_config"),
    ("cli", "cmd_toy", "cli.cmd_toy"),
    ("cli", "cmd_mesh_edit", "cli.cmd_mesh_edit"),
)

PACKAGE = "sdse_lab"


def _observe_density_grid(result, args, counters):
    xs, ys, _ = result
    counters["plots.density_grid.points"] += len(xs) * len(ys)


def _observe_marching_squares(result, args, counters):
    counters["plots.marching_squares.segments"] += len(result)


def _observe_optimize_point(result, args, counters):
    counters["optimize.point_steps"] += result.num_rows - 1
    counters["optimize.guard_trips"] += int(result.guard_tripped)


def _observe_to_csv(result, args, counters):
    counters["optimize.csv_bytes"] += len(result.encode("utf-8"))


def _observe_convergence_check(result, args, counters):
    counters["mode_distance_sum"] += result.distance
    counters["mode_distance_runs"] += 1


def _observe_run_mesh_edit(result, args, counters):
    # Final mean distance of the edited regions' codes to the nearest joint
    # mode, as experiments.mode_distance_of_regions defines it.
    from sdse_lab.experiments import PROFILES
    from sdse_lab.mixtures import FULL_COND
    mesh, profile, mix = args[:3]
    profile = PROFILES[profile] if isinstance(profile, str) else profile
    edited = [r for r, cond in profile.items() if cond == FULL_COND]
    if not edited:
        return
    modes = mix.mode_points(FULL_COND)
    verts = np.flatnonzero(np.isin(mesh.regions, edited))
    for report in result:
        codes = report.final_mesh.codes[verts]
        dist = np.linalg.norm(codes[:, None, :] - modes[None, :, :], axis=2)
        counters["mode_distance_sum"] += float(dist.min(axis=1).mean())
        counters["mode_distance_runs"] += 1


# Work counts read off return values and arguments, at the same boundary as
# the span, after its clock has stopped.
OBSERVERS = {
    "plots.density_grid": _observe_density_grid,
    "plots.marching_squares": _observe_marching_squares,
    "optimize.optimize_point": _observe_optimize_point,
    "optimize.Trajectory.to_csv": _observe_to_csv,
    "experiments.convergence_check": _observe_convergence_check,
    "experiments.run_mesh_edit": _observe_run_mesh_edit,
}

WORK_COUNTERS = ("plots.density_grid.points", "plots.marching_squares.segments",
                 "optimize.point_steps", "optimize.guard_trips", "optimize.csv_bytes")
COUNTERS = WORK_COUNTERS + ("mode_distance_sum", "mode_distance_runs")


DERIVED_UNITS = {"optimize.us_per_point_step": "us", "views.ms_per_edit_step": "ms",
                 "optimize.csv_bytes": "B", "experiments.mode_distance_mean": "dist"}


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric reported by ``Tracer.snapshot``."""
    if name.endswith(".self_s"):
        return "s"
    return DERIVED_UNITS.get(name, "count")


class Tracer:
    """Span recorder for the functions in ``TARGETS``; a context manager per traced call."""

    def __init__(self):
        self.targets = TARGETS
        self.names = [name for _, _, name in self.targets]
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list[int]] = []   # [span id, child ns] per open span
        self._next_id = 1
        self._trace_id = 0
        self.reset_counts()

    def reset_counts(self) -> None:
        self.calls = dict.fromkeys(self.names, 0)
        self.self_ns = dict.fromkeys(self.names, 0)
        self.total_ns = dict.fromkeys(self.names, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, _, _ in self.targets:
            importlib.import_module(f"{PACKAGE}.{module}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for index, (module, path, name) in enumerate(self.targets):
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, index, name))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, index, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, wrapper) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _wrap(self, fn, index: int, name: str):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                tracer.total_ns[name] += duration
                spans.append((tracer._trace_id, span_id, parent, index, start, end))
            if observe is not None:
                observe(result, args, tracer.counters)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- one traced workload call -------------------------------------------

    def __enter__(self) -> "Tracer":
        self._trace_id += 1
        self.reset_counts()
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, float]:
        """Counts and times of the last traced call, keyed by per-layer metric name."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        counters = self.counters
        for key in WORK_COUNTERS:
            out[key] = counters[key]
        steps = counters["optimize.point_steps"]
        out["optimize.us_per_point_step"] = (
            self.total_ns["optimize.optimize_point"] / 1e3 / steps if steps else 0.0)
        edit_steps = self.calls["views.edit_step"]
        out["views.ms_per_edit_step"] = (
            self.total_ns["experiments.run_mesh_edit"] / 1e6 / edit_steps
            if edit_steps else 0.0)
        runs = counters["mode_distance_runs"]
        out["experiments.mode_distance_mean"] = (
            counters["mode_distance_sum"] / runs if runs else 0.0)
        return out

    def write_spans(self, path) -> None:
        """Write every recorded span as gzip CSV: trace,span,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("trace,span,parent,name,start_ns,end_ns\n")
            for trace_id, span_id, parent, index, start, end in self.spans:
                fh.write(f"{trace_id},{span_id},{parent},{self.names[index]},{start},{end}\n")
