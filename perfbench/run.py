"""fiblti benchmark: three seeded closed-loop workloads, checked by an independent oracle.

    python3 perfbench/run.py --workload pole-sums --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.  Workloads:

  pole-sums    in-process inversions (poles, regions, partial fractions,
               inverse_z) and closed forms over a seeded system family
  recursions   in-process difference equations, convolutions, engines and
               identity sweeps: field adds and multiplies, no pole powers
  cli-oneshot  one `python -m fiblti.cli` subprocess per operation

Every workload is a closed loop with one client.  `--trace 0` prints the
end-to-end metrics; `--trace 1` prints the per-layer metrics of a separate
traced run (see README.md in this directory).  The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import pace

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
PYTHON = sys.executable
WORKLOADS = ("pole-sums", "recursions", "cli-oneshot")
MIN_OPS = 100  # ten samples beyond p90
WALL_CAP_S = 150.0  # hard stop, well inside the 180 s budget of one run
SETUP_REPEATS = 11
START = perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def wall_of(argv: list, repeats: int, refs: list | None = None) -> list[float]:
    """Wall time of `repeats` runs of argv.

    With `refs`, the kernel is timed three times before and three times after
    each run, and the mean of the two medians is appended to `refs`.
    """
    out = []
    for _ in range(repeats):
        before = statistics.median(pace.time_kernel() for _ in range(3)) if refs is not None else 0.0
        t0 = perf_counter()
        subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        out.append(perf_counter() - t0)
        if refs is not None:
            refs.append((before + statistics.median(pace.time_kernel() for _ in range(3))) / 2)
    return out


class CliRunner:
    """Runs one command at a time; stdout goes to a file, rusage comes from wait4."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.peak_rss_kb = 0

    def __call__(self, argv: list, prefix: list | None = None) -> tuple[float, int, str]:
        out_path, err_path = self.tmp / "stdout.txt", self.tmp / "stderr.txt"
        cmd = [PYTHON, *(["-m", "fiblti.cli"] if prefix is None else prefix), *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return dt, proc.returncode, out_path.read_text(encoding="utf-8")


def assess(op, result, error: str | None) -> tuple[bool, bool, int, str | None]:
    """(ok, exact, samples, error) of one execution, by the oracle."""
    if error is not None:
        return False, False, 0, error
    try:
        ok, exact, samples = op.check(result)
    except Exception:  # a malformed output is a failed operation
        return False, False, 0, traceback.format_exc(limit=2)
    return ok, bool(exact), samples, None if ok else "oracle rejected the output"


class Loop:
    """Closed-loop bookkeeping: latency per attempted operation, oracle time apart.

    `refs[i]`, when kept, is the reference kernel's time right after operation i.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.samples = 0
        self.exact = 0
        self.failed = 0
        self.oracle_s = 0.0
        self.failures: list[str] = []

    def record(self, op, dt: float, result, error: str | None, ref: float | None = None) -> None:
        t0 = perf_counter()
        verdict = assess(op, result, error)
        self.oracle_s += perf_counter() - t0
        self.add(op, dt, *verdict)
        if ref is not None:
            self.refs.append(ref)

    def add(self, op, dt: float, ok: bool, exact: bool, samples: int, error: str | None) -> None:
        self.latencies.append(dt)
        if ok:
            self.samples += samples
            self.exact += exact
            return
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.kind} {op.argv or ''}: {error}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_op(op, cli: CliRunner | None, prefix=None):
    """Time one operation; returns (seconds, result, error)."""
    if op.run is None:
        dt, code, text = cli(op.argv, prefix)
        return dt, text, None if code == 0 else f"exit code {code}"
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the library raising is a failed operation
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, result, None


class Workload:
    def __init__(self, name: str, seed: int, tmp: Path):
        import workloads as W

        self.name, self.seed, self.tmp = name, seed, tmp
        self.W = W
        self.F = None
        if name != "cli-oneshot":
            import fiblti

            self.F = fiblti
        self.ctx = W.Context(self.F)

    def round(self, r: int) -> list:
        """The operations of round r over that round's system family."""
        from family import family

        W, ctx = self.W, self.ctx
        ctx.new_round()
        specs = family(self.seed, r)
        if self.name == "pole-sums":
            return W.pole_sums_round(ctx, specs, self.seed, r)
        if self.name == "recursions":
            # Systems are built here, outside any timer; the operations only simulate.
            systems = [s.build(self.F) for s in specs]
            return W.recursions_round(ctx, specs, systems, self.seed, r)
        return W.cli_round(ctx, specs, self.seed, r, str(self.tmp))

    def warm_up_ops(self) -> list:
        """One operation of each kind from round -2, which is never timed.

        cli-oneshot starts a fresh interpreter per call, so one call (to load
        files into the OS cache) is enough.
        """
        seen: dict = {}
        for op in self.round(-2):
            seen.setdefault(op.kind, op)
        ops = list(seen.values())
        return ops[:1] if self.name == "cli-oneshot" else ops



def known_defects() -> dict:
    """The known-defect reproducers, run through the library after the timed loop."""
    import fiblti
    import workloads

    return workloads.known_defects(fiblti)


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def machine_info() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(), "numpy": numpy_version,
            "machine": platform.machine()}


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(normalised, raw) median set-up time over fresh processes."""
    argv = [PYTHON, str(HERE / "setup_child.py"), workload, str(seed)]
    refs: list[float] = []
    walls = wall_of(argv, SETUP_REPEATS, refs)
    return statistics.median(pace.normalise(walls, refs)), statistics.median(walls)


def enough(busy_s: float, attempted: int, seconds: float, start: float) -> bool:
    """Stop rule, applied only between rounds so every run is made of whole rounds."""
    return busy_s >= seconds and attempted >= MIN_OPS or perf_counter() - start > WALL_CAP_S


def cli_loop(wl: Workload, seconds: float, cli: CliRunner) -> Loop:
    for op in wl.warm_up_ops():
        run_op(op, cli)
    loop = Loop()
    start = perf_counter()
    r, busy = 0, 0.0
    while not enough(busy, loop.attempted, seconds, start):
        for op in wl.round(r):
            loop.record(op, *run_op(op, cli), ref=pace.time_kernel())
            busy += pace.scaled(loop.latencies[-1], loop.refs)
            if perf_counter() - start > WALL_CAP_S:
                return loop
        r += 1
    return loop


def worker_loop(wl: Workload, seconds: float) -> tuple[Loop, int]:
    """Run the timed loop in worker.py, then check every result here."""
    results = wl.tmp / "results.pickle"
    argv = [PYTHON, str(HERE / "worker.py"), wl.name, str(wl.seed), repr(seconds), str(results)]
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    loop = Loop()
    rounds: dict = {}
    with open(results, "rb") as fh:
        while True:
            try:
                r, i, dt, ref, result, error = pickle.load(fh)
            except EOFError:
                break
            if r not in rounds:
                rounds = {r: wl.round(r)}
            loop.record(rounds[r][i], dt, result, error, ref)
    return loop, usage.ru_maxrss


def end_to_end(wl: Workload, seconds: float, cli: CliRunner) -> tuple[dict, Loop, dict]:
    """The end-to-end metrics, with every timing normalised by `pace`; raw ones under `raw.`."""
    setup_s, raw_setup_s = measure_setup(wl.name, wl.seed)
    if wl.name == "cli-oneshot":
        loop = cli_loop(wl, seconds, cli)
        rss_kb = cli.peak_rss_kb
    else:
        loop, rss_kb = worker_loop(wl, seconds)
    defects = known_defects()
    n = loop.attempted
    latencies = pace.normalise(loop.latencies, loop.refs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * p90(latencies), "ms"),
        "samples_per_s": (loop.samples / sum(latencies), "1/s"),
        "failed_share": (loop.failed / n, "ratio"),
        "exact_share": (loop.exact / n, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "raw.setup_s": (raw_setup_s, "s"),
        "raw.latency_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
        "raw.latency_p90_ms": (1e3 * p90(loop.latencies), "ms"),
        "raw.samples_per_s": (loop.samples / loop.busy_s, "1/s"),
        "raw.kernel_ms": (1e3 * statistics.median(loop.refs), "ms"),
    }
    return metrics, loop, defects


def traced(wl: Workload, seconds: float, cli: CliRunner) -> tuple[dict, Loop, dict]:
    """Probes, start-up costs, then round 0 untraced and again traced.

    The traced run does fixed work (the probes and one round), so its layer
    numbers compare across commits; `seconds` bounds only the end-to-end run.
    """
    import fiblti
    import probes
    import tracing

    metrics: dict = {}
    probe_loop = Loop()
    for name, (ms, ok) in probes.run_probes(fiblti, wl.ctx, cli).items():
        metrics[name] = (ms, "ms")
        probe_loop.latencies.append(ms / 1e3)
        if not ok:
            probe_loop.failed += 1
            probe_loop.failures.append(f"{name}: oracle rejected the output")
    interp = statistics.median(wall_of([PYTHON, "-c", "pass"], 5))
    imp = statistics.median(wall_of([PYTHON, "-c", "import fiblti.cli"], 5))
    metrics["cli.interpreter_s"] = (interp, "s")
    metrics["cli.import_s"] = (imp - interp, "s")
    for op in wl.warm_up_ops():
        run_op(op, cli)
    ops = wl.round(0)
    plain, loop = Loop(), Loop()
    for op in ops:
        plain.record(op, *run_op(op, cli))
    summary = tracing.empty_summary()
    main_s, out_bytes = [], []
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{wl.name}-{wl.seed}"
    if wl.name == "cli-oneshot":
        summary_path = wl.tmp / "summary.json"
        for i, op in enumerate(ops):
            prefix = [str(HERE / "cli_driver.py"), str(summary_path), str(out_dir / f"spans-{tag}-{i}.jsonl")]
            dt, text, error = run_op(op, cli, prefix)
            loop.record(op, dt, text, error)
            child = json.loads(summary_path.read_text(encoding="utf-8"))
            tracing.merge(summary, child["summary"])
            main_s.append(child["main_s"])
            out_bytes.append(len(text.encode("utf-8")))
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for op in ops:
                loop.record(op, *run_op(op, cli))
        finally:
            tracer.uninstall()
        tracing.merge(summary, tracer.summary())
        tracer.dump(str(out_dir / f"spans-{tag}.jsonl"))
    metrics.update(tracing.layer_metrics(summary))
    metrics["cli.main_s"] = (statistics.mean(main_s) if main_s else 0.0, "s")
    metrics["cli.output_bytes"] = (statistics.mean(out_bytes) if out_bytes else 0.0, "bytes")
    metrics["bench.oracle_s"] = (plain.oracle_s, "s")
    metrics["bench.tracing_overhead"] = (loop.busy_s / plain.busy_s - 1, "ratio")
    defects = known_defects()
    metrics["bench.known_defects"] = (sum(defects.values()), "count")
    for part in (probe_loop, plain):
        loop.latencies += part.latencies
        loop.failed += part.failed
        loop.failures += part.failures
    return metrics, loop, defects


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fiblti" / "__init__.py").is_file():
        print(f"error: no fiblti sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(args.workload, args.seed, tmp)
        cli = CliRunner(tmp)
        run = traced if args.trace else end_to_end
        metrics, loop, defects = run(wl, args.seconds, cli)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info = machine_info()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} machine={json.dumps(info)}")
    for name, (value, unit) in metrics.items():
        note = f"  (p90 of {loop.attempted} operations)" if name == "latency_p90_ms" else ""
        print(f"# {name:34s} {value:14.6g} {unit}{note}")
    print(f"# oracle {loop.oracle_s:.3f} s, busy {loop.busy_s:.3f} s, wall {perf_counter() - START:.3f} s")
    print(f"# known defects (not in failed_share; True = still present): {json.dumps(defects)}")
    for failure in loop.failures:
        print(f"# failure: {failure}", file=sys.stderr)
    reported = {k: v for k, v in metrics.items() if k != "failed_share" and not k.startswith("raw.")}
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
