"""Set-up probe: the set-up a user pays for, timed in a fresh process.

    python3 perfbench/probe.py --workload W --seed N [--spans FILE]

Times `import coadinv`, `load_catalog` and the instantiation (structure
constants plus parsed invariants) of every input of the workload's first
pass.  The harness's own input generation runs between the last two and is
not timed.  Prints one JSON object; with --spans the set-up runs traced
(after the import), the object also holds the spans' summary, and the spans
are written to FILE.

The program is imported before any harness module, so that modules both
import are charged to the program, as a user would see it.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

if not os.path.isfile(os.path.join(SRC, "coadinv", "__init__.py")):
    sys.exit(f"error: no coadinv package under {SRC}")
sys.path.insert(0, SRC)

t_import = time.perf_counter()
import coadinv  # noqa: E402
t_import = time.perf_counter() - t_import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None, help="trace the set-up, spans to this file")
    args = parser.parse_args()
    if os.path.dirname(os.path.abspath(coadinv.__file__)) != os.path.join(SRC, "coadinv"):
        sys.exit(f"error: coadinv imported from {coadinv.__file__}")

    tracer = Tracer()
    with tracer.installed() if args.spans else contextlib.nullcontext():
        t0 = time.perf_counter()
        records = workloads.load_records(coadinv)
        t1 = time.perf_counter()
        inputs = workloads.pass_records(args.workload, args.seed, records, 0)
        t2 = time.perf_counter()
        workloads.instantiate_all(coadinv, inputs)
        t3 = time.perf_counter()
    out = {"import_s": t_import, "load_s": t1 - t0, "instantiate_s": t3 - t2,
           "setup_s": t_import + (t1 - t0) + (t3 - t2), "inputs": len(inputs)}
    if args.spans:
        out["spans"] = tracer.summary()
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
