"""coadinv benchmark: seeded closed-loop workloads, checked against a reference.

    python3 perfbench/run.py --workload catalog|search|rebased --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.  One
process and one thread send one op at a time, the next only after the
previous returned (closed loop, one client).  Every op's verdict is compared
with perfbench/reference.json; an op that raises or disagrees is failed.

--trace 0 reports the end-to-end metrics:
  setup_s      median over SETUP_PROBES fresh processes, spread over the
               run, of import + load_catalog + instantiate/parse of every
               input of a pass (probe.py)
  ops_per_s    ops per second of op time; the timed phase is the sum of the
               op calls, so generating the next pass's inputs is not charged
  op_p50_ms, op_p90_ms   per-op latency percentiles
  peak_rss_mb  ru_maxrss of this process
Op and set-up times are calibrated against the machine's speed
(calibrate.py); the table above the JSON line prints them raw as well, and
error_rate (failed / attempted).  The run stops at the first op boundary
after --seconds of op time once at least MIN_OPS ops ran.  Every pass
instantiates its inputs afresh, outside the timed phase, so no op gets
objects an earlier op has seen.

--trace 1 reports the per-layer metrics instead: the set-up probe is rerun
traced, and whole passes run twice each, first untraced and then traced on
equal inputs and seeds, until --seconds are spent.  Per-layer times and
counts are per traced pass; trace.overhead_ratio is traced op time over
untraced op time of the same passes; set-up layer times are per traced
probe, calibrated like setup_s.  The catalog workload also calls
`cli.main(["check", "--format", "jsonl", "--seed", S])` twice in-process; the
pair counts as one op, failed unless both outputs are byte-identical and
agree with the reference.  Spans are written to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when the run completed, 2 when the program is missing
or cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

MIN_OPS = 100
SETUP_PROBES = 9
TRACED_PROBES = 3
KERNEL_SAMPLES = 3  # child kernel samples before each set-up probe
OUT_DIR = workloads.ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"


class Runner:
    """Runs passes of one workload and checks every op against the reference."""

    def __init__(self, coadinv, workload: str, seed: int, kernel: calibrate.Kernel):
        self.coadinv = coadinv
        self.kernel = kernel
        self.workload = workload
        self.seed = seed
        self.reference = workloads.load_reference()
        self.records = workloads.load_records(coadinv)
        self.attempted = 0
        self.failed = 0
        self.modes = []  # check modes of every verification report seen
        self.raw = []  # op latencies in seconds, in run order
        self.samples = []  # calibration samples, one before and one after each op

    def pass_inputs(self, k: int):
        """[(instantiated input, op seed)] of pass k, in its seeded order."""
        recs = workloads.pass_records(self.workload, self.seed, self.records, k)
        insts = workloads.instantiate_all(self.coadinv, recs)
        return [(insts[i], op_seed) for i, op_seed in
                workloads.schedule(self.workload, self.seed, k, len(insts))]

    def run_op(self, inst, op_seed: int) -> float:
        """One timed op; returns its latency in seconds."""
        error = None
        self.samples.append(self.kernel.sample())
        start = time.perf_counter()
        try:
            result = workloads.run_op(self.coadinv, self.workload, inst, op_seed)
        except Exception:  # a raising op is a failed op; the run goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        self.raw.append(elapsed)
        self.samples.append(self.kernel.sample())
        self.attempted += 1
        name = inst[0].name
        if error is None:
            got = workloads.verdict(self.workload, result)
            if self.workload != "search":
                self.modes.extend(c.mode for c in result.checks)
            if got != workloads.expected(self.reference, self.workload, name):
                error = f"{name}: verdict {got} differs from the reference"
        if error is not None:
            self.failed += 1
            print(f"op failed ({self.workload}, {name}, op seed {op_seed}): {error}",
                  file=sys.stderr)
        return elapsed

    def run_pass(self, ops) -> float:
        return sum(self.run_op(inst, op_seed) for inst, op_seed in ops)


def probe_setup(workload: str, seed: int, kernel: calibrate.Kernel, spans=None) -> dict:
    """One set-up probe in a fresh process, traced when spans names a file
    for them.  Just before it, a fresh interpreter's numpy import is timed
    ("numpy_s") and the kernel sampled; "import_scale" and "python_scale"
    calibrate the probe's import and its pure-Python set-up by them, and
    "scaled" is its set-up time so calibrated."""
    numpy_s = calibrate.import_sample()
    kernel_s = statistics.median(kernel.sample()[1] for _ in range(KERNEL_SAMPLES))
    cmd = [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=workloads.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["numpy_s"] = numpy_s
    out["import_scale"] = calibrate.IMPORT_REFERENCE_S / numpy_s
    out["python_scale"] = calibrate.REFERENCE_S / kernel_s
    out["scaled"] = (out["import_s"] * out["import_scale"]
                     + (out["load_s"] + out["instantiate_s"]) * out["python_scale"])
    return out


def latency_metrics(latencies) -> dict:
    return {"ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms")}


def untraced(coadinv, workload: str, seed: int, seconds: float,
             kernel: calibrate.Kernel) -> dict:
    # set-up time swings with the host over tens of seconds, so the probes
    # are spread over the run (between ops, outside the timed phase)
    probes = []
    runner = Runner(coadinv, workload, seed, kernel)
    busy = 0.0
    k = 0
    while busy < seconds or len(runner.raw) < MIN_OPS:
        for inst, op_seed in runner.pass_inputs(k):
            if len(probes) < SETUP_PROBES and busy >= len(probes) * seconds / SETUP_PROBES:
                probes.append(probe_setup(workload, seed, kernel))
            busy += runner.run_op(inst, op_seed)
            if busy >= seconds and len(runner.raw) >= MIN_OPS:
                break
        k += 1
    probes += [probe_setup(workload, seed, kernel)
               for _ in range(SETUP_PROBES - len(probes))]
    latencies = calibrate.scale(runner.raw, runner.samples)
    metrics = {"setup_s": (statistics.median(p["scaled"] for p in probes), "s")}
    metrics.update(latency_metrics(latencies))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    raw = {"setup_s": statistics.median(p["setup_s"] for p in probes),
           "peak_rss_mb": metrics["peak_rss_mb"][0],
           **{name: value for name, (value, _) in latency_metrics(runner.raw).items()}}
    p90 = metrics["op_p90_ms"][0] / 1e3
    print(f"workload={workload} seed={seed} ops={len(latencies)} "
          f"({sum(x > p90 for x in latencies)} beyond p90) passes={k} "
          f"op_time_s={sum(runner.raw):.2f} setup_probes={SETUP_PROBES}")
    print(f"  {'metric':<12} {'calibrated':>12} {'raw':>12}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:>12.4f} {raw[name]:>12.4f} {unit}")
    rate = runner.failed / runner.attempted
    print(f"  {'error_rate':<12} {rate:>12.4f} {rate:>12.4f} ratio "
          f"({runner.failed} failed / {runner.attempted} attempted)")
    return finish(runner, metrics)


def cli_check_op(coadinv, runner: Runner, seed: int) -> None:
    """`coadinv check --format jsonl` twice in-process: one op."""
    argv = ["check", "--format", "jsonl", "--seed", str(seed)]
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = coadinv.cli.main(argv)
        outputs.append((code, buf.getvalue()))
    runner.attempted += 1
    problem = None
    if outputs[0] != outputs[1]:
        problem = "the two outputs differ"
    else:
        lines = [json.loads(line) for line in outputs[0][1].splitlines()]
        got = {d["algebra"]: {"jacobi_ok": d["jacobi_ok"], "n_invariants": d["n_invariants"],
                              "independence_rank": d["independence_rank"],
                              "passed": d["passed"],
                              "checks": [c["passed"] for c in d["checks"]]} for d in lines}
        if got != runner.reference["verify"]:
            problem = "verdicts differ from the reference"
    if problem:
        runner.failed += 1
        print(f"op failed (cli check --seed {seed}): {problem}", file=sys.stderr)


# per traced pass: (span name, "s" | "self_s" | "calls")
PER_PASS = [
    ("algebra.jacobi_defect", "s"), ("algebra.jacobi_defect", "calls"),
    ("algebra.generic_rank", "self_s"), ("linalg.rank", "s"), ("linalg.rank", "calls"),
    ("invariants.polynomial_invariant_search", "self_s"),
    ("linalg.sparse_nullspace", "s"), ("linalg.sparse_nullspace", "calls"),
    ("linalg.rref", "s"),
    ("expr.as_polynomial", "s"), ("expr.as_polynomial", "calls"),
    ("expr.rational_form", "s"), ("expr.rational_form", "calls"),
    ("invariants.is_invariant_numeric", "s"), ("invariants.is_invariant_numeric", "calls"),
    ("expr.evaluate", "s"), ("expr.evaluate", "calls"),
    ("expr.differentiate", "s"), ("expr.differentiate", "calls"),
    ("invariants.apply_operator", "s"), ("invariants.apply_operator", "calls"),
    ("invariants.functional_independence_rank", "s"),
    ("invariants.verify_algebra", "self_s"),
]
# per set-up probe, median over the traced probes
PER_SETUP = [("catalog.load_catalog", "s"), ("catalog.instantiate", "self_s"),
             ("expr.parse", "s"), ("expr.parse", "calls")]


def traced(coadinv, workload: str, seed: int, seconds: float,
           kernel: calibrate.Kernel) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{workload}-{seed}"
    probes = [probe_setup(workload, seed, kernel, f"{stem}-setup{i}.jsonl")
              for i in range(TRACED_PROBES)]
    runner = Runner(coadinv, workload, seed, kernel)
    tracer = Tracer()
    is_traced = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        runner.run_pass(runner.pass_inputs(passes))
        ops = runner.pass_inputs(passes)  # the same inputs, instantiated afresh
        with tracer.installed():
            for op_id, (inst, op_seed) in enumerate(ops):
                tracer.op = passes * len(ops) + op_id
                runner.run_op(inst, op_seed)
        is_traced += [False] * len(ops) + [True] * len(ops)
        passes += 1
    tracer.write(f"{stem}-passes.jsonl")
    scaled = calibrate.scale(runner.raw, runner.samples)
    plain = sum(t for t, on in zip(scaled, is_traced) if not on)
    with_trace = sum(t for t, on in zip(scaled, is_traced) if on)
    scale = statistics.median(
        f for f, on in zip(calibrate.factors(runner.samples), is_traced) if on)

    cli_self = 0.0
    if workload == "catalog":
        cli_tracer = Tracer()
        with cli_tracer.installed():
            cli_check_op(coadinv, runner, seed)
        cli_tracer.write(f"{stem}-cli.jsonl")
        cli_self = cli_tracer.summary()["cli.main"]["self_s"] / 2 * scale

    summary = tracer.summary()
    counts = tracer.counts
    metrics = {}
    for name, key in PER_PASS:
        value = summary[name][key] / passes if name in summary else 0.0
        metrics[f"{name}.{key}"] = ((value * scale, "s/pass") if key != "calls"
                                    else (value, "1/pass"))
    for key in ("rows_in", "nnz_in", "nullity_out"):
        metrics[f"linalg.sparse_nullspace.{key}"] = (
            counts[f"linalg.sparse_nullspace.{key}"] / passes, "1/pass")
    calls = summary["expr.as_polynomial"]["calls"] if "expr.as_polynomial" in summary else 0
    metrics["expr.as_polynomial.hit_ratio"] = (
        counts["expr.as_polynomial.polynomial"] / calls if calls else 0.0, "ratio")
    metrics["invariants.symbolic_share"] = (
        sum(m != "numeric" for m in runner.modes) / len(runner.modes)
        if runner.modes else 0.0, "ratio")

    def probe_median(fn):
        return statistics.median(fn(p) for p in probes)

    # numpy's import is the calibration reference itself, so it stays raw
    metrics["setup.import_numpy_s"] = (probe_median(lambda p: p["numpy_s"]), "s")
    metrics["setup.import_coadinv_s"] = (
        probe_median(lambda p: p["import_s"] * p["import_scale"]), "s")
    for name, key in PER_SETUP:
        value = probe_median(lambda p: p["spans"].get(name, {}).get(key, 0)
                             * (1 if key == "calls" else p["python_scale"]))
        metrics[f"{name}.{key}"] = (value, "count" if key == "calls" else "s")
    metrics["cli.main.self_s"] = (cli_self, "s")
    metrics["trace.overhead_ratio"] = (with_trace / plain, "ratio")

    print(f"workload={workload} seed={seed} traced passes={passes} "
          f"untraced op time={plain:.2f}s traced op time={with_trace:.2f}s "
          f"(calibrated) spans in {OUT_DIR.name}/")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    return finish(runner, metrics)


def finish(runner: Runner, metrics: dict) -> dict:
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        coadinv = workloads.import_program()
    except (workloads.ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = traced if args.trace else untraced
    with calibrate.Kernel() as kernel:
        result = run(coadinv, args.workload, args.seed, args.seconds, kernel)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
