#!/usr/bin/env python3
"""rwasim benchmark: drive the CLI as a user does and check every file it
writes against a reference that shares no code with rwasim.

    python3 benchmarks/run.py --workload cli-scenarios --seed 1 --seconds 30 --trace 0

Commands run one at a time, each in a fresh interpreter (a closed loop with
one client), cycling through the workload's batch until --seconds have
passed and every command has run at least once. Set-up probes (a fresh
interpreter that imports rwasim.cli and parses the workload's scenarios
without solving) run SETUP_REPEATS times, spread over the same loop. Each
timing is the median of its samples; the tables also give the highest
percentile with at least ten samples above it, when there are that many.

--trace 0  times `python -m rwasim.cli` and reports the end-to-end metrics
           of BENCHMARK.json.
--trace 1  runs each command untraced and then through traced_cli.py, which
           records spans around calls into each rwasim module, and reports
           the per-layer metrics: self time per layer, counts, tracing
           overhead, cold and warm solves, and a Fock-dimension series.
--workload all  runs every workload in both modes and prints every table.

Every child process gets one BLAS/OpenMP thread (THREAD_ENV). The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics. A report with machine facts, every sample, the oracle deviations
and, when traced, every span is written to .bench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy
import scipy

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"

# One thread per child, on both sides of every comparison. With the default
# OpenBLAS threading a dim-128 run used 12.3 s of CPU for 6.6 s of wall time
# on a 2-core machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
SERIES_DIMS = (8, 32, 128, 512)
SERIES_T_FINAL = 0.5
SERIES_CAP_S = 30.0
# Children are killed when a run reaches this age, so a hung command cannot
# keep the run from ending.
RUN_LIMIT_S = 160.0
SETUP_CODE = "import sys, rwasim.cli\nfrom rwasim.runner import load_scenario_file\nfor p in sys.argv[1:]:\n    load_scenario_file(p)"


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


class Spawner:
    """Starts children with posix_spawn and reaps them with wait4, so that
    each one's CPU time and peak RSS are its own."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline
        self._pid = None
        signal.signal(signal.SIGALRM, self._kill)

    def _kill(self, signum, frame):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)

    def run(self, args, stdout, stderr=None):
        left = self.deadline - time.monotonic()
        if left <= 0:
            return Sample(0.0, 0.0, 0.0, -signal.SIGKILL)
        fds = [os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for p in (stdout, stderr or stdout)]
        actions = [(os.POSIX_SPAWN_DUP2, fds[0], 1), (os.POSIX_SPAWN_DUP2, fds[1], 2)]
        t0 = time.perf_counter()
        try:
            self._pid = os.posix_spawn(sys.executable, [sys.executable, *map(str, args)], self.env, file_actions=actions)
        finally:
            for fd in fds:
                os.close(fd)
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            _, status, usage = os.wait4(self._pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._pid = None
        wall = time.perf_counter() - t0
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status))


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def _git(*args):
    if not (ROOT / ".git").exists():  # a plain checkout; never report an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts():
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "scipy_openblas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "thread_env_children": THREAD_ENV,
        "thread_env_inherited": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
    }


class Run:
    """One workload run: its inputs, its children, and what they produced."""

    def __init__(self, workload, seed, trace, seconds, work):
        self.workload, self.seed, self.trace, self.seconds = workload, seed, trace, seconds
        self.commands = workloads.commands(workload)
        self.mappings = workloads.scenarios(workload, seed, ROOT / "scenarios")
        self.work = work
        self.scenario_dir = work / "scenarios"
        self.out_dir = work / "out"
        self.kept_dir = work / "kept"
        for d in (self.scenario_dir, self.out_dir, self.kept_dir):
            d.mkdir(parents=True)
        workloads.write_scenarios(self.mappings, self.scenario_dir)
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.spawner = Spawner(env, time.monotonic() + RUN_LIMIT_S)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {"untraced": [[] for _ in self.commands], "traced": [[] for _ in self.commands]}
        self.layers = [[] for _ in self.commands]  # per traced sample: {metric: value}
        self.spans = {}  # command id -> that command's spans
        self.outputs = {}  # sha256 -> {"command", "path", "count"}
        self.setup = []
        self.oracle = {}
        self.probe = None

    def _fail(self, what, count=1):
        self.failures.append(what)
        self.failed += count

    def _log_tail(self, path):
        text = Path(path).read_text(errors="replace").strip().splitlines()
        return " | ".join(text[-3:])

    def warm_up(self):
        """Compile bytecode and fill the file cache; not timed or counted."""
        self.spawner.run(["-c", "import rwasim.cli"], self.work / "warmup.log")

    def time_setup(self):
        files = sorted(self.scenario_dir / f"{s}.yaml" for s in {s for c in self.commands for s in c.stems})
        log = self.work / "setup.log"
        s = self.spawner.run(["-c", SETUP_CODE, *files], log)
        self.attempted += 1
        if s.code != 0:
            self._fail(f"setup probe {len(self.setup)}: exit {s.code}: {self._log_tail(log)}")
        self.setup.append(s)

    def execute(self, k, traced):
        cmd = self.commands[k]
        mode = "traced" if traced else "untraced"
        n = len(self.samples[mode][k])
        target = self.out_dir / cmd.output
        target.unlink(missing_ok=True)
        args = cmd.argv(self.scenario_dir, self.out_dir)
        log = self.work / "command.log"
        if traced:
            spans_file = self.work / "spans.json"
            spans_file.unlink(missing_ok=True)
            s = self.spawner.run([HERE / "traced_cli.py", spans_file, f"{k}.{n}", "--", *args], log)
        else:
            s = self.spawner.run(["-m", "rwasim.cli", *args], log)
        self.attempted += 1
        self.samples[mode][k].append(s)
        if s.code != 0 or not target.is_file():
            self._fail(f"{cmd.label} ({mode}): exit {s.code}: {self._log_tail(log)}")
        else:
            digest = hashlib.sha256(target.read_bytes()).hexdigest()
            entry = self.outputs.get(digest)
            if entry is None:
                kept = self.kept_dir / f"{k}-{digest[:16]}-{cmd.output}"
                shutil.copyfile(target, kept)
                entry = self.outputs[digest] = {"command": k, "path": kept, "count": 0}
            entry["count"] += 1
        if traced and spans_file.is_file():
            record = json.loads(spans_file.read_text())
            for name in record["missing_targets"]:
                print(f"warning: traced target {name} not found", file=sys.stderr)
            self.spans[f"{k}.{n}"] = record["spans"]
            self.layers[k].append(layer_totals(record["spans"]))

    def loop(self):
        # The host's speed drifts over periods of 5 to 10 s, so the set-up
        # probes are spread evenly over the loop instead of run together.
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if len(self.setup) < SETUP_REPEATS and elapsed >= len(self.setup) * self.seconds / SETUP_REPEATS:
                self.time_setup()
            k = i % len(self.commands)
            self.execute(k, traced=False)
            if self.trace:
                self.execute(k, traced=True)
            i += 1
            done = time.perf_counter() - start >= self.seconds and i >= len(self.commands)
            if done or time.monotonic() >= self.spawner.deadline:
                break
        while len(self.setup) < SETUP_REPEATS:
            self.time_setup()

    def check_outputs(self):
        refs = oracle.References()
        for digest, entry in self.outputs.items():
            cmd = self.commands[entry["command"]]
            errors, worst = oracle.check(cmd, entry["path"], self.mappings, refs)
            self.oracle[f"{cmd.output} {digest[:12]}"] = {"errors": errors, "worst": worst, "count": entry["count"]}
            if errors:
                self._fail(f"{cmd.label}: oracle: {'; '.join(errors[:3])}", entry["count"])

    def probe_solves(self):
        series = workloads.dim_series(self.seed, ROOT / "scenarios", SERIES_DIMS, SERIES_T_FINAL)
        workloads.write_scenarios(series, self.scenario_dir)
        probe = self.scenario_dir / f"{workloads.SOLVE_PROBE[self.workload]}.yaml"
        out, err = self.work / "probe.json", self.work / "probe.log"
        files = [self.scenario_dir / f"{stem}.yaml" for stem in series]
        s = self.spawner.run([HERE / "probe_solve.py", probe, SERIES_CAP_S, *files], out, err)
        self.attempted += 1
        if s.code != 0:
            self._fail(f"solve probe: exit {s.code}: {self._log_tail(err)}")
            return
        self.probe = json.loads(Path(out).read_text().strip().splitlines()[-1])
        if self.probe["h_evals_cold"] != self.probe["h_evals_warm"]:
            self._fail("solve probe: cold and warm h_evals differ")


def layer_totals(spans_list):
    """Per-layer self time, h_evals and bytes written, summed over one command."""
    totals = {}
    for span, own in zip(spans_list, spans.self_times(spans_list)):
        key = f"{span['name']}_s"
        totals[key] = totals.get(key, 0.0) + own
        for count, metric in (("h_evals", "integrator.h_evals"), ("bytes", "runner.write_bytes")):
            if count in span:
                totals[metric] = totals.get(metric, 0) + span[count]
    return totals


def per_command(samples, field):
    return sum(median([getattr(s, field) for s in cmd]) for cmd in samples)


def end_to_end(run):
    untraced = run.samples["untraced"]
    wall = per_command(untraced, "wall_s")
    solves = sum(c.solves for c in run.commands)
    return {
        "wall_s": wall,
        "setup_s": median([s.wall_s for s in run.setup]),
        "solves_per_s": solves / wall if wall > 0 else 0.0,
        "cpu_s": per_command(untraced, "cpu_s"),
        "peak_rss_mb": max((s.rss_mb for cmd in untraced for s in cmd), default=0.0),
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }


SPAN_METRICS = sorted(
    {f"{name}_s" for name, _, _ in spans.TARGETS} | {"cli.import_s", "integrator.h_evals", "runner.write_bytes"}
)


def per_layer(run, names):
    values = {name: sum(median([t.get(name, 0) for t in cmd]) for cmd in run.layers if cmd) for name in SPAN_METRICS}
    h_evals = values.get("integrator.h_evals", 0)
    values["integrator.us_per_h_eval"] = 1e6 * values["integrator.solve_s"] / h_evals if h_evals else 0.0
    values["tracing.overhead_s"] = per_command(run.samples["traced"], "wall_s") - per_command(
        run.samples["untraced"], "wall_s"
    )
    if run.probe:
        values["integrator.solve_cold_s"] = run.probe["cold_s"]
        values["integrator.solve_warm_s"] = run.probe["warm_s"]
        for dim, point in zip(SERIES_DIMS, run.probe["series"]):
            if not point["capped"]:  # a capped point stays out of the metrics
                values[f"scaling.dim{dim}.solve_s"] = point["solve_s"]
                values[f"scaling.dim{dim}.h_evals"] = point["h_evals"]
    return {name: values[name] for name in names if name in values}


def print_tables(run, metrics, declared):
    print(f"# workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  seconds {run.seconds}")
    print(f"# {'command':<44} {'mode':<8} {'n':>3} {'median_s':>10} {'tail':>16} {'cpu_s':>8} {'rss_mb':>7}")
    rows = [(c.label, "untraced", run.samples["untraced"][k]) for k, c in enumerate(run.commands)]
    rows += [(c.label, "traced", run.samples["traced"][k]) for k, c in enumerate(run.commands) if run.trace]
    rows.append(("setup: import rwasim.cli + parse", "untraced", run.setup))
    for label, mode, samples in rows:
        walls = [s.wall_s for s in samples]
        t = tail(walls)
        tail_txt = f"p{t[0]}={t[1]:.4f}" if t else "none (n<11)"
        cpu = median([s.cpu_s for s in samples])
        rss = max((s.rss_mb for s in samples), default=0.0)
        print(f"# {label:<44} {mode:<8} {len(walls):>3} {median(walls):>10.4f} {tail_txt:>16} {cpu:>8.3f} {rss:>7.1f}")
    for name, unit in declared:
        value = metrics.get(name)
        print(f"# metric {name:<28} {'absent' if value is None else f'{value:.6g}':>14} {unit}")
    for msg in run.failures:
        print(f"# FAILED {msg}")


def run_workload(workload, seed, seconds, trace, declared, facts):
    OUT_ROOT.mkdir(exist_ok=True)
    work = OUT_ROOT / f"work-{os.getpid()}-{workload}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workload, seed, trace, seconds, work)
        run.warm_up()
        run.loop()
        if trace:
            run.probe_solves()
        run.check_outputs()
        names = [name for name, _ in declared]
        metrics = per_layer(run, names) if trace else end_to_end(run)
        print_tables(run, metrics, declared)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        report = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "seconds": seconds,
            "machine": facts,
            "oracle_tolerances": oracle.TOLERANCES,
            "oracle_fine_steps": oracle.FINE_STEPS,
            "commands": [c.label for c in run.commands],
            "samples": {m: [[asdict(s) for s in cmd] for cmd in v] for m, v in run.samples.items()},
            "setup_samples": [asdict(s) for s in run.setup],
            "oracle": run.oracle,
            "probe": run.probe,
            "failures": run.failures,
            "metrics": metrics,
        }
        (OUT_ROOT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
        if trace:
            (OUT_ROOT / f"{stem}-spans.json").write_text(json.dumps(run.spans))
        return run, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 runs the shipped scenarios")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long the command loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rwasim" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no rwasim source under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in workloads.WORKLOADS for w in names):
        parser.error(f"unknown workload {args.workload!r}")
    modes = (0, 1) if args.workload == "all" else (args.trace,)

    facts = machine_facts()
    print(f"# machine {json.dumps(facts)}")
    attempted = failed = 0
    combined = {}
    for workload in names:
        for trace in modes:
            run, metrics = run_workload(workload, args.seed, args.seconds, bool(trace), declared[trace], facts)
            attempted += run.attempted
            failed += run.failed
            units = dict(declared[trace])
            for name, value in metrics.items():
                key = name if len(names) * len(modes) == 1 else f"{workload}/{name}"
                combined[key] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
