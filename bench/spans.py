"""Spans around calls into the program's layers, recorded from outside the program.

The tracer replaces each wrapped public function with a timing wrapper in
every `sirwaves` module namespace that bound it by name (for example
`incidence` in model, pde_sim and wave_profile), so calls are caught whichever
module makes them. Spans are kept in memory and written out at the end of the
run. A span's self time is its length minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Public functions wrapped, by module: the functions the per-layer metrics
# name, every public function of linear_analysis (whose self time is reported
# as one figure), and choose_alphas, delta_inverse_piecewise_g and
# verify_sub_inequalities, which verification.run_suite calls directly, so
# that its self time is its own.
# linear_analysis.golden_section is left out on purpose: align_profiles hands
# it the spline mismatch, so wrapping it would book alignment work to
# linear_analysis.
LAYERS = {
    "model": ["incidence"],
    "linear_analysis": [
        "lambda0", "minimal_speed", "characteristic_f", "check_d3_condition",
        "jacobian_dfe", "a_lambda_matrix", "a_lambda_eigenvalues", "phi",
    ],
    "resolvent": ["apply_delta_inverse", "discrete_kernel", "choose_alphas", "delta_inverse_piecewise_g"],
    "wave_profile": [
        "apply_F", "solve_fixed_point", "make_gamma_set", "verify_sub_inequalities",
        "solve_bvp_newton", "align_profiles", "profile_diagnostics",
    ],
    "pde_sim": ["run", "front_position", "subcritical_falsification"],
    "verification": ["run_suite", "inversion_errors"],
    "cli": ["main", "write_manifest"],
}


class Tracer:
    """Records (name, start, end, parent, op) spans and per-name counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id, self time)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child time]
        self._patched: list[tuple] = []  # (namespace, attribute, original)

    def _span(self, name: str, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op_id, t1 - t0 - frame[1]))
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sirwaves" or mod_name.startswith("sirwaves.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import sirwaves.model
        import sirwaves.pde_sim
        import sirwaves.wave_profile

        hooks = {
            "wave_profile.solve_fixed_point": self._count_iterations,
            "pde_sim.run": self._count_sim_points,
        }
        for layer, names in LAYERS.items():
            mod = sys.modules[f"sirwaves.{layer}"]
            for name in names:
                full = f"{layer}.{name}"
                original = getattr(mod, name)
                self._replace_everywhere(original, self._span(full, original, hooks.get(full)))
        gf = sirwaves.model.GridFunction
        self._patched.append((gf, "__post_init__", gf.__post_init__))
        gf.__post_init__ = self._span("model.GridFunction", gf.__post_init__)
        splu = sirwaves.wave_profile.splu
        self._replace_everywhere(splu, self._counter("wave_profile.solve_bvp_newton.factorizations", splu))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _count_iterations(self, args, report):
        self.counters["wave_profile.solve_fixed_point.iterations"] += report.iterations

    def _count_sim_points(self, args, result):
        cfg = args[0]
        self.counters["pde_sim.run.points_x_time"] += cfg.grid.n * cfg.t_end

    def summary(self, first_span: int = 0) -> dict:
        """Per span name: calls, inclusive and self seconds, over spans from first_span on."""
        out: dict = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for _, name, t0, t1, _, _, self_s in self.spans[first_span:]:
            agg = out[name]
            agg["calls"] += 1
            agg["incl_s"] += t1 - t0
            agg["self_s"] += self_s
        return dict(out)

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op,self\n")
            for sid, name, t0, t1, parent, op, self_s in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{op},{self_s:.9f}\n")
