"""Record the output digest of every workload for every seed class.

    python3 perfbench/record.py

Run from the root of a checkout of the code whose output is the reference.
Writes perfbench/digests.json.  run.py compares every repetition against
these digests, so record only from code whose output is known to be
right, and never to make a mismatch go away.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    digests = {}
    with workloads.work_dir(ROOT) as work:
        for name in workloads.WORKLOADS:
            table = {}
            for seed_class in range(workloads.POOL):
                wl = workloads.make(name, ROOT, seed_class, work)
                outcome = wl.reduce(workloads.rep(wl))
                if outcome.problems:
                    print(f"{name} class {seed_class}: {'; '.join(outcome.problems)}", file=sys.stderr)
                    return 1
                table[str(seed_class)] = outcome.digest
                print(f"{name} class {seed_class}: {outcome.digest}", flush=True)
            digests[name] = table
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
