"""Set-up probe: import the program, write one desk's inputs, say ready.

Usage: ``python3 probe.py <workload JSON> <seed> <directory>``.  The parent
times this process from spawn to the ``ready`` line: the set-up a user
pays before the first request.
"""
import json
import sys
from pathlib import Path

from workloads import Workload, import_program, write_inputs


def main() -> None:
    doc, seed, directory = json.loads(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
    import_program(Path(__file__).resolve().parents[1])
    write_inputs(Workload(**doc), seed, directory)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
