#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of normholo.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop with one client: the workload's
scenarios run one after another in this process through
``normholo.report.run_scenario``, and child processes (fresh imports,
the workload's ``python -m normholo.cli`` command) run one at a time.
BLAS is pinned to one thread here and in every child.

After one warm-up pass, ``--trace 0`` cycles through five fresh imports,
one CLI run and one in-process pass, and stops at the first step that
would end more than S seconds after the process started, and reports (times in reference seconds, see
HostSpeed):
  pass_s           mean time of one in-process pass
  cli_s            mean time of a fresh process running the CLI command
  setup_s          median time of a fresh ``import normholo``
  peak_rss_mb      peak resident memory of this process after one pass
  headroom_digits  min log10(tolerance / residual) over checked residuals
  failed_ratio     failed checks / attempted checks
  runtime_warnings RuntimeWarnings per pass
``--trace 1`` alternates untraced and traced passes instead and reports
the per-layer metrics named in BENCHMARK.json with the tracing
overhead.  Every report of every pass is checked (workloads.check_body)
and compared byte for byte with the warm-up pass.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import os
import time

START = time.perf_counter()  # the --seconds budget counts from here

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)  # before numpy loads

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PER_ROUND = 5
CHILD_TIMEOUT_S = 120

# Metrics printed with the end-to-end ones but kept out of BENCHMARK.json's
# end_to_end list.  failed_ratio is 0 on a healthy run, so it has no
# relative bound; the result line carries failures as "failed"/"attempted".
# runtime_warnings is 0 on transport-loops and sweep-small, where a relative
# bound is undefined, but 98 per pass on holonomy-large.  A rise there shows
# only in the unbounded per-layer runtime_warnings and
# kernels.jacobi_eigh.warnings; the result's "correct" does not depend on it.
EXTRA_UNITS = {"failed_ratio": "ratio", "runtime_warnings": "count"}


class Checks:
    """Tally of correctness checks; a failed one is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    @property
    def ratio(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 0.0


class HostSpeed:
    """Samples the speed of this process's vCPU while work runs.

    The vCPUs of a shared host change speed by up to 2x, in bursts of
    under a second and in phases of tens of seconds, and independently of
    each other.  That moves a median of raw wall times far more than any
    change worth measuring.  So the process is pinned to one vCPU
    (children inherit it), and while it is active a SIGALRM timer runs a
    fixed one-millisecond kernel shaped like normholo's hot code every
    INTERVAL_S and records its CPU time; during a child process the
    kernel shares the child's vCPU.  A timed segment's own time is its
    wall time less the kernel's, and Timing converts it to reference
    seconds with the mean sample over the segments of one metric.  REF_SAMPLE_S is the kernel's
    time on a quiet 2-vCPU Xeon KVM guest, so on that host at rest a
    reference second is a wall second.
    """

    INTERVAL_S = 0.1
    REF_SAMPLE_S = 0.0008

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((12, 12))
        self.frames = rng.standard_normal((6, 5, 5))
        self.vectors = rng.standard_normal((6, 441))
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        """Time one round of four kernels shaped like normholo's hot code:
        Jacobi column rotations, Gram-Schmidt on K*K-vectors, einsums on
        frame stacks and small matmuls."""
        t0 = time.thread_time()
        a = self.small + self.small.T
        for p in range(5):
            for q in range(p + 1, 12):
                c, s = np.cos(a[p, q]), np.sin(a[p, q])
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
        basis = []
        for v in self.vectors:
            w = v.copy()
            for _ in range(2):
                for b in basis:
                    w = w - (b @ w) * b
            basis.append(w / np.linalg.norm(w))
        f = self.frames
        xi = f[:2].copy()
        for _ in range(8):
            xi = np.einsum("mk,kij->mij", np.einsum("kij,mij->mk", f, xi), f)
            xi /= np.sqrt(np.einsum("mij,mij->m", xi, xi))[:, None, None]
        a = self.small
        for _ in range(25):
            a = 0.5 * (a @ self.small + self.small.T)
            a = a / np.linalg.norm(a)
        self.samples.append(time.thread_time() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, timing: "Timing"):
        """Call fn(); add its own time and the samples taken to timing."""
        k = len(self.samples)
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        taken = self.samples[k:]
        timing.add(wall - sum(taken), taken)
        return result


class Timing:
    """Own wall seconds of the segments of one metric, with their samples."""

    def __init__(self):
        self.walls = []
        self.samples = []

    def add(self, wall: float, samples: list) -> None:
        self.walls.append(wall)
        self.samples.extend(samples)

    def factor(self) -> float:
        """Reference seconds per wall second over these segments."""
        if not self.samples:
            return 1.0
        return HostSpeed.REF_SAMPLE_S / statistics.fmean(self.samples)

    def reference(self, stat=statistics.fmean) -> float:
        return stat(self.walls) * self.factor()


def pin_to_one_cpu() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_package():
    """Import normholo from this checkout's src/, or exit non-zero."""
    if not (SRC / "normholo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no normholo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import normholo
    if Path(normholo.__file__).resolve().parent != (SRC / "normholo").resolve():
        sys.exit(f"perfbench: imported normholo from {normholo.__file__}, "
                 f"not from {SRC}")
    return normholo


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PINS)


def environment(normholo) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}"
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        pass
    kernels = getattr(normholo, "kernels", None)
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "pins": {k: os.environ.get(k) for k in BLAS_PINS},
            "backend": getattr(kernels, "BACKEND", "absent"),
            "machine": platform.machine(),
            "platform": platform.platform()}


def run_child(argv: list, speed: HostSpeed, timing: Timing):
    return speed.timed(lambda: subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S), timing)


def run_setup(speed: HostSpeed, timing: Timing, checks: Checks) -> None:
    """One fresh ``import normholo``."""
    proc = run_child([sys.executable, "-c", "import normholo"], speed, timing)
    checks.add("setup.exit_code", proc.returncode == 0)


def run_cli(args: list, speed: HostSpeed, timing: Timing, checks: Checks,
            docs: list) -> None:
    """One CLI run; checks its report, and its body against the first run's."""
    proc = run_child([sys.executable, "-m", "normholo.cli", *args], speed,
                     timing)
    checks.add("cli.exit_code", proc.returncode == 0)
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        checks.add("cli.json", False)
        return
    doc.pop("timings", None)
    docs.append(doc)
    checks.add("cli.deterministic", doc == docs[0])
    for body in doc.get("sweep", [doc]):
        for name, ok in workloads.check_body(body):
            checks.add(f"cli.{name}", ok)


def run_pass(report, configs, on_warning=None) -> tuple:
    """One pass: run and render every scenario.

    Returns (reports, RuntimeWarning count).
    """
    count = 0

    def hook(message, category, *args, **kwargs):
        nonlocal count
        if issubclass(category, RuntimeWarning):
            count += 1
            if on_warning is not None:
                on_warning()

    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = hook
        for config in configs:
            rep = report.run_scenario(config)
            rep.document_text()
            reports.append(rep)
    return reports, count


def check_reports(reports, ref_texts, checks: Checks) -> list:
    """Check every report and its byte identity with the warm-up pass."""
    bodies = []
    for i, rep in enumerate(reports):
        text = rep.body_text()
        label = f"scenario{i}"
        checks.add(f"{label}.deterministic", text == ref_texts[i])
        body = json.loads(text)
        for name, ok in workloads.check_body(body):
            checks.add(f"{label}.{name}", ok)
        bodies.append(body)
    return bodies


def layer_metrics(names, summary: dict, modules: set) -> dict:
    """Per-layer metric values from a trace summary.

    A name is <span>.<stat>, where <span> is a traced function (such as
    linalg.orthonormal_span) or a module, which sums its functions.
    kept_ratio is the span's kept count over its offered count.
    """
    out = {}
    for name in names:
        key, stat = name.rsplit(".", 1)
        if key in modules:
            out[name] = sum(s.get(stat, 0.0) for span, s in summary.items()
                            if span.split(".", 1)[0] == key)
            continue
        s = summary.get(key, {})
        if stat == "kept_ratio":
            offered = s.get("offered", 0.0)
            out[name] = s.get("kept", 0.0) / offered if offered else 0.0
        else:
            out[name] = float(s.get(stat, 0.0))
    return out


def print_metric(name, value, unit, timing: Timing | None = None) -> None:
    line = f"metric {name} {value!r} {unit}"
    if timing is not None and timing.walls:
        walls = timing.walls
        q1, q3 = (statistics.quantiles(walls, n=4)[::2] if len(walls) > 1
                  else (walls[0], walls[0]))
        line += (f"  (n={len(walls)}, wall median {statistics.median(walls):.6g}"
                 f" q1 {q1:.6g} q3 {q3:.6g}; {timing.factor():.4f} reference"
                 f" s per wall s from {len(timing.samples)} samples)")
    print(line)


def measure(args, spec, normholo, checks: Checks) -> dict:
    from normholo import report

    configs = [report.ScenarioConfig.from_dict(c)
               for c in workloads.scenarios(args.workload, args.seed)]
    per_pass_warnings = []

    warm, nwarn = run_pass(report, configs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_pass_warnings.append(nwarn)
    ref = [rep.body_text() for rep in warm]
    bodies = check_reports(warm, ref, checks)
    headroom = workloads.headroom_digits(
        pair for body in bodies for pair in workloads.residuals(body))

    speed = HostSpeed()
    if not args.trace:
        # Cycle through fresh imports, one CLI run and one pass.  The first
        # cycle always runs; after it, the run stops at the first step that
        # would end past the time budget, judged by that step's last time.
        cli_args = workloads.headline_command(args.workload, args.seed)
        setup, cli, passes, docs = Timing(), Timing(), Timing(), []

        def setups():
            for _ in range(SETUP_PER_ROUND):
                run_setup(speed, setup, checks)

        def one_pass():
            reps, nwarn = speed.timed(lambda: run_pass(report, configs),
                                      passes)
            per_pass_warnings.append(nwarn)
            check_reports(reps, ref, checks)

        steps = (setups, lambda: run_cli(cli_args, speed, cli, checks, docs),
                 one_pass)
        last = {}
        speed.start()
        try:
            for step in itertools.cycle(steps):
                t0 = time.perf_counter()
                if step in last and t0 - START + last[step] > args.seconds:
                    break
                step()
                last[step] = time.perf_counter() - t0
        finally:
            speed.stop()
        values = {
            "pass_s": (passes.reference(), passes),
            "cli_s": (cli.reference(), cli),
            "setup_s": (setup.reference(statistics.median), setup),
            "peak_rss_mb": (peak_rss_mb, None),
            "headroom_digits": (headroom, None),
            "failed_ratio": (checks.ratio, None),
            "runtime_warnings": (statistics.median(per_pass_warnings), None)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update(EXTRA_UNITS)
        for name, (value, timing) in values.items():
            print_metric(name, value, units[name], timing)
        return {m["name"]: values[m["name"]][0] for m in spec["end_to_end"]}

    import spans

    # Untraced passes run with the speed sampler on; traced passes run
    # with it off, so no sample lands in a span, and are converted with
    # the untraced passes' factor.
    tracer = spans.Tracer(normholo)
    untraced, traced_walls, layer_samples = Timing(), [], []
    while True:
        t0 = time.perf_counter()
        speed.start()
        try:
            reps, nwarn = speed.timed(lambda: run_pass(report, configs),
                                      untraced)
        finally:
            speed.stop()
        per_pass_warnings.append(nwarn)
        check_reports(reps, ref, checks)
        tracer.reset()
        tracer.install()
        try:
            t1 = time.perf_counter()
            reps, nwarn = run_pass(report, configs,
                                   on_warning=tracer.note_warning)
            traced_walls.append(time.perf_counter() - t1)
        finally:
            tracer.uninstall()
        check_reports(reps, ref, checks)
        layer_samples.append(tracer.summary())
        now = time.perf_counter()
        if now - START + (now - t0) > args.seconds:
            break

    factor = untraced.factor()
    for summary in layer_samples:
        for stats in summary.values():
            stats["self_s"] *= factor
            stats["total_s"] *= factor
    modules = {m.__name__.split(".")[-1] for m in tracer.modules[1:]}
    known = tracer.span_names | modules
    traced_s = statistics.fmean(traced_walls) * factor
    run_level_names = ("trace.pass_s", "trace.untraced_pass_s",
                       "trace.overhead_s", "runtime_warnings", "failed_ratio")
    layer_names = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in run_level_names]
    # A name whose span or module is gone (renamed, inlined) would read 0,
    # which looks like a gain; it fails the run instead.
    for name in layer_names:
        checks.add(f"trace.{name}.known", name.rsplit(".", 1)[0] in known)
    run_level = {
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced.reference(),
        "trace.overhead_s": traced_s - untraced.reference(),
        "runtime_warnings": statistics.median(per_pass_warnings),
        "failed_ratio": checks.ratio,
    }
    samples = [layer_metrics(layer_names, s, modules) for s in layer_samples]
    values = dict(run_level)
    for name in layer_names:
        values[name] = statistics.median(s[name] for s in samples)

    last = layer_samples[-1]
    print(f"top spans by self time (last of {len(traced_walls)} traced "
          "passes, reference seconds):")
    for span, s in sorted(last.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
        print(f"  {span:48s} self {s['self_s']:9.4f} s  "
              f"calls {int(s['calls']):7d}  warnings {int(s['warnings'])}")
    for m in spec["per_layer"]:
        print_metric(m["name"], values[m["name"]], m["unit"],
                     untraced if m["name"] == "trace.untraced_pass_s" else None)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "summary": last, "spans": tracer.dump()}))
    print(f"spans of the last traced pass written to {out.relative_to(ROOT)}")
    return {m["name"]: values[m["name"]] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the whole run, counted from "
                             "its start; one cycle of measurements always "
                             "runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    normholo = import_package()
    env = environment(normholo)
    env["pinned_cpu"] = pin_to_one_cpu()
    print("env " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               **env}, sort_keys=True))
    checks = Checks()
    metrics = measure(args, spec, normholo, checks)
    for name in checks.failed[:20]:
        print(f"perfbench: check failed: {name}", file=sys.stderr)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
