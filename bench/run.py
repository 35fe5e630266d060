#!/usr/bin/env python3
"""Benchmark for sirwaves: run one named workload with a seed, check every output, print metrics.

    python3 bench/run.py --workload wave_ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --short          # one checked op per workload, no metrics

Run from the root of a source checkout; the program is imported from its
`src/` directory. Load model: a closed loop with one client, in one process
and one thread. A run repeats whole rounds of the workload's fixed list of
ops until the next round would end past --seconds (at least two rounds, so
every verify config and seed is repeated for the determinism check).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics setup_s, wall_s, op_p50_s and peak_rss_mb; with --trace 1
it carries the per-layer metrics of a traced run instead. Lines before it
give the same figures for people: units, sample counts, tails, per-case
medians. An op fails when it raises, exits non-zero or fails a check;
`failed` counts those ops and `correct` is true only when there are none.
The exit code is 0 when the run completed, whatever its ops did.
"""

from __future__ import annotations

import os

# One client on one thread: keep numerical libraries from starting thread
# pools. Set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import refspeed  # noqa: E402  (the environment above must be set first)
import workloads  # noqa: E402

MIN_ROUNDS = 2
SETUP_PROBES = 3
IMPORT_PROBES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import sirwaves from this checkout's src/ and nowhere else."""
    pkg = SRC / "sirwaves"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no sirwaves package at {pkg}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sirwaves.cli

    if Path(sirwaves.__file__).resolve().parent != pkg:
        raise ProgramMissing(f"imported sirwaves from {sirwaves.__file__}, not {pkg}")
    return sirwaves


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


class Runner:
    """Executes and checks the ops of one workload; each case has its own output directory."""

    def __init__(self, cases, out_root: Path):
        import checks
        import sirwaves.cli
        import sirwaves.pde_sim

        self.checks = checks
        self.cli = sirwaves.cli
        self.pde_sim = sirwaves.pde_sim
        self.sw = sys.modules["sirwaves"]
        self.cases = cases
        self.out_root = out_root
        shutil.rmtree(out_root, ignore_errors=True)
        (out_root / "configs").mkdir(parents=True)
        self.config_paths = []
        for k, case in enumerate(cases):
            path = out_root / "configs" / f"{k:02d}.json"
            path.write_text(json.dumps(case.config(), indent=2, sort_keys=True))
            self.config_paths.append(str(path))
        self.first_reports: dict[int, bytes] = {}

    def _argv(self, k: int, case, out: str) -> list[str]:
        cfg = self.config_paths[k]
        if case.kind == "profile":
            tol = ["--tol", repr(case.tol)] if case.tol is not None else []
            return ["profile", cfg, "--c", repr(case.c), "--solver", "both", *tol, "--out", out]
        if case.kind == "simulate":
            return ["simulate", cfg, "--out", out]
        return ["verify", cfg, "--level", "quick", "--seed", str(case.seed), "--out", out]

    def _falsify(self, case):
        sw = self.sw
        g = case.grid
        cfg = self.pde_sim.SimConfig(
            params=sw.ModelParams(**case.params),
            grid=sw.Grid(g["x_min"], g["x_max"], g["n"]),
            t_end=case.sim["t_end"],
            ic=self.pde_sim.PulseIC(center=case.sim["pulse_center"], amplitude=case.sim["pulse_amplitude"]),
        )
        return self.pde_sim.subcritical_falsification(cfg, case.c)

    def run_op(self, k: int, check: bool = True, sampler=None):
        """Run case k once; returns (seconds, failure messages, bytes written).

        Without check, only an exception or a non-zero exit code fails the op.
        """
        case = self.cases[k]
        out = self.out_root / f"{k:02d}"
        sink = io.StringIO()
        code = result = None
        sampler = sampler or refspeed.Sampler(enabled=False)
        t0 = time.perf_counter()
        try:
            with sampler, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if case.kind == "falsify":
                    result = self._falsify(case)
                else:
                    code = self.cli.main(self._argv(k, case, str(out)))
        except (Exception, SystemExit):
            elapsed = time.perf_counter() - t0 - sampler.spent
            last = traceback.format_exc().strip().splitlines()[-1]
            return elapsed, [f"raised {last}"], 0
        elapsed = time.perf_counter() - t0 - sampler.spent
        if case.kind == "falsify":
            bad = self.checks.check_falsification(case.params, case.c, result) if check else []
            return elapsed, bad, 0
        try:
            bad = self._check(k, case, out, code) if check else []
        except (OSError, ValueError, KeyError, IndexError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        if code != 0 and not any("exit code" in b for b in bad):
            bad.insert(0, f"exit code {code}")
        return elapsed, bad, _dir_bytes(out)

    def _check(self, k: int, case, out: Path, code) -> list[str]:
        chk = self.checks
        if case.kind == "profile":
            x, s, i, r, diag = chk.load_profile_outputs(str(out))
            return chk.check_profile(x, s, i, r, case.params, case.c, diag)
        if case.kind == "simulate":
            trace, budget, snapshots, summary = chk.load_simulate_outputs(str(out))
            g = case.grid
            dx = (g["x_max"] - g["x_min"]) / (g["n"] - 1)
            return chk.check_front(case.params, g["x_max"], dx, trace, budget, snapshots, summary)
        report = (out / "verify_report.json").read_bytes()
        first = self.first_reports.setdefault(k, report)
        return chk.check_verify_report(code, report, first if first is not report else None)


def set_up(workload: str, seed: int, out_root: Path):
    """Import the program, write the workload's inputs and pay the first call's lazy costs."""
    import_program()
    runner = Runner(workloads.cases_for(workload, seed), out_root)
    warm = Runner(workloads.warmup_cases(workload), out_root / "warmup")
    for k in range(len(warm.cases)):
        _, bad, _ = warm.run_op(k, check=False)
        if bad:
            raise RuntimeError(f"warm-up op failed: {bad}")
    return runner


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it is ready for its first timed op.

    Returns the raw time and the time at reference speed. The probe samples
    the kernel while it sets up (see refspeed) and reports the time those
    samples took and the scale factor they give.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
    fields = line.split()
    if not fields or fields[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    spent, factor = float(fields[1]), float(fields[2])
    return t1 - t0, (t1 - t0 - spent) * factor


def probe_imports() -> dict:
    """Cumulative import times (s) of sirwaves and scipy.signal from -X importtime in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sirwaves"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("sirwaves", "scipy.signal"):
            found[parts[2]] = int(parts[1]) * 1e-6
    return found


def tail_note(samples: list[float]) -> str:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it (none below 40 samples)."""
    n = len(samples)
    if n < 40:
        return f"n={n}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return f"n={n}; p{p} {q:.4f} s"
    return f"n={n}"


def run_rounds(runner: Runner, seconds: float, tracer=None):
    """Whole rounds until the next would end past `seconds`; with a tracer, rounds alternate
    untraced and traced. Returns per-round records.

    Each op's latency is kept raw and scaled to reference speed by the
    kernel times just before, during (untraced rounds only) and just after it.
    """
    rounds = []
    n_cases = len(runner.cases)
    t_start = time.perf_counter()
    ref_before = refspeed.edge()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
            counters0 = dict(tracer.counters)
        raw, lat, failures, failed_ops, out_bytes = [], [], [], 0, 0
        try:
            for k in range(n_cases):
                if traced:
                    tracer.op_id += 1
                sampler = refspeed.Sampler(enabled=not traced)
                dt, bad, nbytes = runner.run_op(k, sampler=sampler)
                ref_after = refspeed.edge()
                raw.append(dt)
                lat.append(dt * refspeed.scale(ref_before + sampler.samples + ref_after))
                ref_before = ref_after
                out_bytes += nbytes
                failures.extend(f"{runner.cases[k].name}: {b}" for b in bad)
                failed_ops += bool(bad)
        finally:
            if traced:
                tracer.uninstall()
        rec = {"traced": traced, "raw": raw, "lat": lat, "wall": sum(lat), "failures": failures,
               "failed_ops": failed_ops, "out_bytes": out_bytes}
        if traced:
            rec["spans"] = tracer.summary(first_span)
            rec["counters"] = {k: v - counters0.get(k, 0.0) for k, v in tracer.counters.items()}
        rounds.append(rec)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(sum(r["raw"]) for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds


def outcome(rounds: list) -> dict:
    """The result line's counts: ops attempted and failed, and whether every op passed."""
    attempted = sum(len(r["lat"]) for r in rounds)
    failed = sum(r["failed_ops"] for r in rounds)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def case_medians(rounds: list, key: str = "lat") -> list[float]:
    """Each case's median latency over the given rounds."""
    return [statistics.median(r[key][k] for r in rounds) for k in range(len(rounds[0][key]))]


def layer_metrics(rec: dict) -> dict:
    """Per-layer figures of one traced round."""
    spans, counters = rec["spans"], rec["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def incl(name):
        return spans.get(name, {}).get("incl_s", 0.0)

    run_time = incl("pde_sim.run")
    f_calls = calls("wave_profile.apply_F")
    return {
        "model.incidence.calls": (calls("model.incidence"), "count"),
        "model.incidence.self_s": (self_s("model.incidence"), "s"),
        "model.GridFunction.builds": (calls("model.GridFunction"), "count"),
        "model.GridFunction.self_s": (self_s("model.GridFunction"), "s"),
        "linear_analysis.self_s": (sum(v["self_s"] for k, v in spans.items() if k.startswith("linear_analysis.")), "s"),
        "resolvent.apply_delta_inverse.calls": (calls("resolvent.apply_delta_inverse"), "count"),
        "resolvent.apply_delta_inverse.self_s": (self_s("resolvent.apply_delta_inverse"), "s"),
        "resolvent.discrete_kernel.calls": (calls("resolvent.discrete_kernel"), "count"),
        "wave_profile.apply_F.calls": (f_calls, "count"),
        "wave_profile.apply_F.self_s": (self_s("wave_profile.apply_F"), "s"),
        "wave_profile.apply_F.per_call_s": (incl("wave_profile.apply_F") / f_calls if f_calls else 0.0, "s"),
        "wave_profile.solve_fixed_point.iterations": (
            int(counters.get("wave_profile.solve_fixed_point.iterations", 0)), "count"),
        "wave_profile.solve_fixed_point.self_s": (self_s("wave_profile.solve_fixed_point"), "s"),
        "wave_profile.make_gamma_set.self_s": (self_s("wave_profile.make_gamma_set"), "s"),
        "wave_profile.solve_bvp_newton.self_s": (self_s("wave_profile.solve_bvp_newton"), "s"),
        "wave_profile.solve_bvp_newton.factorizations": (
            int(counters.get("wave_profile.solve_bvp_newton.factorizations", 0)), "count"),
        "wave_profile.align_profiles.self_s": (self_s("wave_profile.align_profiles"), "s"),
        "wave_profile.profile_diagnostics.self_s": (self_s("wave_profile.profile_diagnostics"), "s"),
        "pde_sim.run.self_s": (self_s("pde_sim.run"), "s"),
        "pde_sim.run.sim_rate": (counters.get("pde_sim.run.points_x_time", 0.0) / run_time if run_time else 0.0,
                                 "pt.t/s"),
        "pde_sim.front_position.calls": (calls("pde_sim.front_position"), "count"),
        "pde_sim.front_position.self_s": (self_s("pde_sim.front_position"), "s"),
        "pde_sim.subcritical_falsification.self_s": (self_s("pde_sim.subcritical_falsification"), "s"),
        "verification.run_suite.self_s": (self_s("verification.run_suite"), "s"),
        "verification.inversion_errors.self_s": (self_s("verification.inversion_errors"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.write_manifest.self_s": (self_s("cli.write_manifest"), "s"),
        "cli.out_bytes": (rec["out_bytes"], "bytes"),
    }


def measure(args) -> dict:
    workload, seed = args.workload, args.seed
    out_root = OUT / workload
    import_program()
    tracer = None
    setup = []
    if not args.trace:
        setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    runner = set_up(workload, seed, out_root)
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    rounds = run_rounds(runner, args.seconds, tracer)
    for r in rounds:
        for f in r["failures"]:
            print(f"FAILED {f}")

    plain = [r for r in rounds if not r["traced"]]
    lat = [x for r in plain for x in r["lat"]]
    per_case = case_medians(plain)
    print(f"workload {workload} seed {seed}: {len(rounds)} rounds of {len(runner.cases)} ops; "
          f"times in s at reference speed (raw wall-clock in brackets)")
    raw_case = case_medians(plain, "raw")
    for k, case in enumerate(runner.cases):
        print(f"  case {k:2d} {case.kind:9s} {case.name:28s} median {per_case[k]:.4f} s [{raw_case[k]:.4f} s]")

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(n for _, n in setup),
            "wall_s": sum(per_case),
            "op_p50_s": statistics.median(per_case),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters; [raw "
                       + ", ".join(f"{raw:.3f}" for raw, _ in setup) + " s]",
            "wall_s": f"one round, each op at its median over {len(plain)} rounds; [raw {sum(raw_case):.4f} s]",
            "op_p50_s": f"median over {len(per_case)} cases of each case's median; [raw "
                        f"{statistics.median(raw_case):.4f} s]; pooled median of all ops "
                        f"{statistics.median(lat):.4f} s, " + tail_note(lat),
            "peak_rss_mb": "getrusage ru_maxrss of this process",
        }
        for name, unit in END_TO_END:
            print(f"{name} {metrics[name]:.6g} {unit} ({notes[name]})")
        return {**outcome(rounds),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}}

    traced = [r for r in rounds if r["traced"]]
    layers = {}
    per_round = []
    for rec in traced:
        # layer times are scaled to reference speed by the round's own factor
        scale = rec["wall"] / sum(rec["raw"])
        per_round.append({k: (v * scale if u not in ("count", "bytes") else v, u)
                          for k, (v, u) in layer_metrics(rec).items()})
    for name, (_, unit) in per_round[0].items():
        values = [m[name][0] for m in per_round]
        if unit in ("count", "bytes"):
            if len(set(values)) > 1:
                print(f"WARNING {name} differs between traced rounds: {values}")
            layers[name] = (values[0], unit)
        else:
            layers[name] = (statistics.median(values), unit)
    imports = [probe_imports() for _ in range(IMPORT_PROBES)]
    for key, name in (("sirwaves", "import.sirwaves_s"), ("scipy.signal", "import.scipy_signal_s")):
        layers[name] = (statistics.median(i[key] for i in imports), "s")
    wall_traced = sum(case_medians(traced))
    wall_plain = sum(per_case)
    layers["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    print(f"traced wall_s {wall_traced:.4f} s, untraced wall_s {wall_plain:.4f} s, "
          f"{len(traced)} traced and {len(plain)} untraced rounds")
    for name, (value, unit) in layers.items():
        print(f"{name} {value:.6g} {unit}")
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{workload}-seed{seed}.spans.csv"
    tracer.write(str(spans_path))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return {**outcome(rounds), "metrics": {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}}


def short_mode() -> int:
    """One checked op per workload: the cheapest case of each."""
    import_program()
    picks = {"wave_ladder": 5, "front_spread": 0, "verify_quick": 0}
    failed = 0
    for workload, k in picks.items():
        cases = workloads.cases_for(workload, 1)
        runner = Runner([cases[k]], OUT / "short" / workload)
        dt, bad, _ = runner.run_op(0)
        status = "ok" if not bad else "FAILED " + "; ".join(bad)
        print(f"{workload:13s} {cases[k].name:28s} {dt:.3f} s  {status}")
        failed += bool(bad)
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="run one checked op per workload and exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.short:
            return short_mode()
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_probe:
            before = refspeed.edge()
            with refspeed.Sampler() as sampler:
                set_up(args.workload, args.seed, OUT / f"{args.workload}-probe")
            after = refspeed.edge()
            spent = sum(before) + sampler.spent + sum(after)
            print("ready", spent, refspeed.scale(before + sampler.samples + after), flush=True)
            return 0
        result = measure(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
