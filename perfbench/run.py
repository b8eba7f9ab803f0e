"""Benchmark of the ``swingquant`` command.

Usage::

    python3 perfbench/run.py --workload month_desk --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py``) against the program under
``src/`` of the checkout this file sits in, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).  The
full record of the run goes to ``perfbench/out/``.
"""
import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One numeric-library thread, fixed before numpy loads here and in
    # the set-up probes.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from workloads import WORKLOADS, import_program

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    import_program(HERE.parent)
    from desk import run_workload

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    out = HERE / "out"
    result, record = run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace),
                                  out / f"run-{tag}-{os.getpid()}")
    (out / f"{tag}.json").write_text(json.dumps(record) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
