"""normcharts benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes its seeded
inputs under `.bench_work/`, then runs passes of the workload's CLI commands,
each pass in a fresh interpreter, on two CPUs at once, until S seconds have
gone by and at least four passes have started.  It checks every output and
prints a JSON report followed by one JSON result line: end-to-end metrics
with `--trace 0`, per-layer metrics with `--trace 1`.  See
perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 4
# Two clients run passes side by side, each pinned to its own CPU.  On shared
# virtual machines each CPU drifts between a fast and a slow state over
# seconds, independently of the other, so two clients sample the drift twice
# as often per second measured.
CLIENTS = 2
# Times are reported in reference seconds: measured seconds times
# SAMPLE_REF_S over the mean CPU speed sample (sampler.py) taken on the same
# CPU while the timed work ran.  A slow spell of the CPU stretches both, so
# the ratio cancels most of it.
SAMPLE_REF_S = 0.005
SAMPLE_MARGIN_S = 0.5
CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 2
# One BLAS thread: the same on every machine with at least one core, and it
# keeps each pass on the one CPU its client is pinned to.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}


def per_layer_units() -> dict:
    import tracer

    units = {name: ("s" if name.endswith("_s") else "count") for name in tracer.PER_LAYER}
    units["growthchart.lbfgs_converged_ratio"] = "ratio"
    units.update({f"{layer}.self_s": "s" for layer in tracer.LAYERS})
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(work: Path, tag: str, commands: list, trace_file=None, cpu=None) -> dict:
    """One fresh interpreter running `commands` through the CLI, on `cpu` if given.

    Returns the pass runner's result plus the process's wall time and peak
    resident set size, both taken by this process around the child.
    """
    spec, result = work / f"{tag}-spec.json", work / f"{tag}-result.json"
    spec.write_text(
        json.dumps({"src": str(SRC), "trace": str(trace_file) if trace_file else None, "commands": commands}),
        encoding="utf-8",
    )
    with open(work / f"{tag}-child.log", "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "passrun.py"), str(spec), str(result)],
            cwd=ROOT, env=child_env(), stdout=log, stderr=log,
        )
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {
        "rc": proc.returncode,
        "process_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "commands": [],
    }
    if proc.returncode != 0 or not result.is_file():
        print(f"pass runner {tag} exited {proc.returncode}; see {log.name}", file=sys.stderr)
        return out
    out.update(json.loads(result.read_text(encoding="utf-8")))
    out["cpu"] = cpu
    return out


class Samplers:
    """One sampler.py process per CPU in `cpus`, pinned to it, for the run."""

    def __init__(self, work: Path, cpus):
        self.procs = {}
        for cpu in cpus:
            out = work / f"speed-cpu{cpu}.json"
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "sampler.py"), str(out)], stdin=subprocess.PIPE, cwd=ROOT
            )
            os.sched_setaffinity(proc.pid, {cpu})
            self.procs[cpu] = (proc, out)
        self.samples: dict = {}

    def stop(self) -> None:
        for cpu, (proc, out) in self.procs.items():
            proc.stdin.close()
            proc.wait(timeout=30)
            self.samples[cpu] = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else []

    def speed(self, cpu, start: float, end: float) -> float:
        """Mean relative speed (SAMPLE_REF_S / sample) on `cpu` between start and end."""
        lo, hi = start - SAMPLE_MARGIN_S, end + SAMPLE_MARGIN_S
        taken = [SAMPLE_REF_S / s for t, s in self.samples.get(cpu, []) if lo <= t <= hi]
        if not taken:
            raise RuntimeError(f"no CPU speed samples on cpu {cpu} in [{lo:.1f}, {hi:.1f}]")
        return statistics.mean(taken)

    def scale(self, res: dict) -> None:
        """Add reference-second times to a child's result."""
        if "window" not in res:
            return
        start, imported, end = res["window"]
        res["ref_import_s"] = res["import_s"] * self.speed(res["cpu"], start, imported)
        speed = self.speed(res["cpu"], start, end)
        res["speed"] = speed
        res["ref_pass_s"] = res["pass_s"] * speed
        for c in res["commands"]:
            c["ref_s"] = c["seconds"] * speed


def run_pass(wl, work: Path, index: int, traced: bool, cpu=None) -> dict:
    """Run one pass; its outputs are checked later, once timing is over."""
    pass_dir = work / f"pass-{index}"
    pass_dir.mkdir()
    commands = wl.commands(pass_dir)
    trace_file = pass_dir / "spans.json" if traced else None
    res = run_child(work, f"pass-{index}", commands, trace_file, cpu)
    return {**res, "index": index, "dir": pass_dir, "traced": traced, "planned": commands,
            "trace_file": trace_file}


def check_exit_codes(checks, tag: str, planned: list, res: dict) -> None:
    checks.expect(f"{tag}: pass runner exit code", res["rc"] == 0, str(res["rc"]))
    ran = {c["log"]: c["rc"] for c in res["commands"]}
    for cmd in planned:
        rc = ran.get(cmd["log"])
        checks.expect(f"{tag}: {cmd['name']} exit code", rc == 0, f"{rc}; see {cmd['log']}")


def check_pass(wl, p: dict, checks) -> None:
    """Check one pass's exit codes, outputs and spans; adds `values` (and `trace`)."""
    import tracer

    index = p["index"]
    check_exit_codes(checks, f"pass {index}", p["planned"], p)
    try:
        p["values"] = wl.check(p["dir"], checks)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as e:
        checks.expect(f"pass {index}: outputs readable", False, repr(e))
        p["values"] = {"quality": 0.0, "digests": {}}
    if not p["traced"]:
        return
    if not checks.expect(f"pass {index}: span file written", p["trace_file"].is_file()):
        return
    doc = json.loads(p["trace_file"].read_text(encoding="utf-8"))
    p["trace"] = tracer.summarize(doc["spans"])
    for name in doc["missing"]:
        print(f"tracer: {name} not found in the program", file=sys.stderr)
    for span in wl.expected_spans:
        calls = p["trace"]["spans"].get(span, {}).get("calls", 0)
        checks.expect(f"pass {index}: span {span} saw calls", calls > 0, "zero calls")


def measure(wl, work: Path, seconds: float, trace: bool, cpus) -> list[dict]:
    """Closed loop: each client starts its next pass when its last one ends.

    Clients start passes until `seconds` have gone by and at least
    MIN_PASSES have started.  With `trace`, every other pass is traced.
    """
    lock = threading.Lock()
    passes: list[dict] = []
    started = [0]
    t0 = time.perf_counter()

    def client(cpu):
        while True:
            with lock:
                index = started[0]
                if index >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
                    return
                started[0] += 1
            result = run_pass(wl, work, index, trace and index % 2 == 1, cpu)
            with lock:
                passes.append(result)

    threads = [threading.Thread(target=client, args=(cpu,)) for cpu in cpus]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted(passes, key=lambda p: p["index"])


def environment() -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "src_py_lines": src_lines,
        "machine": platform.machine(),
    }


def median(xs) -> float:
    return float(statistics.median(xs))


def layer_metrics(traced: list, untraced: list) -> dict:
    """Medians over traced passes, times in reference seconds like wall_s."""
    import tracer

    rows = []
    for p in traced:
        row = tracer.layer_metrics(p["trace"])
        speed = p["speed"]
        rows.append({k: v * speed if k.endswith("_s") else v for k, v in row.items()})
    out = {name: median([r[name] for r in rows]) for name in rows[0]}
    walls = [median([p["ref_pass_s"] for p in group]) for group in (traced, untraced)]
    out["trace.overhead_s"] = walls[0] - walls[1]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "normcharts" / "cli.py").is_file():
        print(f"no normcharts sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks as ck
    import workloads
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = ck.Checks()
    wl = WORKLOADS[args.workload](ROOT, work, args.seed)

    def run_prep(tag, commands):
        check_exit_codes(checks, tag, commands, run_child(work, tag, commands))

    facts = wl.build(run_prep, checks)
    cpus = sorted(os.sched_getaffinity(0))[:CLIENTS]
    samplers = Samplers(work, cpus)
    try:
        # The first import compiles bytecode, which users pay once, not per command.
        samples = 1 if args.trace else SETUP_SAMPLES + 1
        setup = [run_child(work, f"setup-{i}", [], cpu=cpus[0]) for i in range(samples)][1:]
        t0 = time.perf_counter()
        passes = measure(wl, work, args.seconds, bool(args.trace), cpus)
        measured_s = time.perf_counter() - t0
    finally:
        samplers.stop()
    for res in setup + passes:
        samplers.scale(res)
    for p in passes:
        check_pass(wl, p, checks)
        p["cmd_s"] = {}
        for c in p["commands"]:
            p["cmd_s"][c["name"]] = p["cmd_s"].get(c["name"], 0.0) + c["ref_s"]

    digests = [p["values"].get("digests") for p in passes]
    checks.expect("outputs byte-identical across passes", all(d == digests[0] for d in digests))

    timed = [p for p in passes if "ref_pass_s" in p]
    plain = [p for p in timed if not p["traced"]]
    if not plain or (args.trace and not any("trace" in p for p in timed)):
        print(f"no pass finished; failed checks: {checks.failed}", file=sys.stderr)
        return 1
    setup = [p["ref_import_s"] for p in setup + plain if "ref_import_s" in p]
    e2e = {
        "setup_s": median(setup),
        "wall_s": median([p["ref_pass_s"] for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        "quality": median([p["values"]["quality"] for p in passes]),
    }
    failed = len(checks.failed)
    shown = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    for name in sorted({n for p in plain for n in p["cmd_s"]}):
        shown[f"{name}_s"] = (median([p["cmd_s"].get(name, 0.0) for p in plain]), "s")
    for name, unit in workloads.NAMED_UNITS.items():
        if name in passes[0]["values"]:
            shown[name] = (median([p["values"].get(name, 0.0) for p in passes]), unit)
    shown["error_rate"] = (failed / checks.attempted, "ratio")
    if args.trace:
        units = per_layer_units()
        per_layer = layer_metrics([p for p in timed if "trace" in p], plain)
        shown.update({k: (per_layer[k], units[k]) for k in units})
        result = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
    else:
        result = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "inputs_sha256": wl.inputs,
        "input_facts": facts,
        "passes": [
            {k: p.get(k) for k in ("cpu", "traced", "process_s", "cpu_s", "pass_s", "speed", "ref_pass_s")}
            for p in passes
        ],
        "measured_s": measured_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "outputs_sha256": digests[0],
        "failed_checks": checks.failed,
    }
    print(json.dumps(report, indent=2))
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
