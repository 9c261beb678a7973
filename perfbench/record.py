"""Record the output digests of every workload at the given seeds.

Usage, from the root of a source checkout:

    python3 perfbench/record.py SEED [SEED ...] [--workload NAME ...]

Run it only on a commit whose outputs are known to be right, and say in the
change why they moved. Each workload runs once per seed; its outputs must
pass the invariant checks of run.py, and their digests then replace the ones
recorded for that seed in digests.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    path = run.DIGESTS_PATH
    table = json.loads(path.read_text()) if path.exists() else {}
    try:
        for workload in args.workload or run.WORKLOADS:
            for seed in args.seeds:
                case = run.prepare(workload, seed, tiny=False)
                out = case.work / "out"
                cmd = [sys.executable, "-c", run.RUN_CLI, *case.argv, "--out", run._rel(out)]
                wall, _, code, stderr = run.spawn(cmd, case.work)
                problems = [stderr.strip()] if code else run.INVARIANTS[workload](case, out)
                if problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                for note in case.notes:
                    print(f"{workload} seed {seed}: note: {note}")
                table.setdefault(workload, {})[str(seed)] = run.digests(out)
                path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
                print(f"{workload} seed {seed}: recorded ({wall:.1f} s)")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
