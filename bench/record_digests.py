"""Record the reference data digests that bench/run.py compares against.

    python3 bench/record_digests.py

Runs each workload once for each of the seeds 0 to SEEDS - 1 with the same
pinned environment as the benchmark, checks the outputs and writes
bench/reference_digests.json. A workload whose data files are the same for
every seed is stored once, under the key "*".
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = 20


def main() -> int:
    work = run.WORK / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    refs: dict = {}
    try:
        for name in run.WORKLOADS:
            digests = {}
            for seed in range(SEEDS):
                runner = run.Runner(name, seed, work)
                runner.run(traced=False)
                if runner.problems:
                    print(f"{name} seed {seed}: {runner.problems}", file=sys.stderr)
                    return 1
                digests[str(seed)] = runner.digests.pop()
                print(name, seed, digests[str(seed)], flush=True)
            if len(set(digests.values())) == 1:
                digests = {"*": digests["0"]}
            refs[name] = digests
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
