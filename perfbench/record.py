"""Record the reference digests that the correctness gate compares against.

    python3 perfbench/record.py [--seeds 0-9]

Runs every distinct job of every workload for the given seeds once, on the
package in this checkout's src/, and writes perfbench/references.json: the
command line of each job mapped to "<exit code>:<sha256 of stdout>".  Run it
only on a commit whose outputs are known to be right; jobs that also have
invariants must pass them before they are recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from run import check, joblib


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    sys.path.insert(0, str(run.SRC))
    package = run.import_package()
    refs = {}
    for workload in joblib.WORKLOADS:
        for seed in range(int(lo), int(hi or lo) + 1):
            for job in joblib.generate(workload, seed):
                if job.key in refs:
                    continue
                _dt, rc, out, error = run.execute(package.cli.main, job.argv)
                reason = check.verify(job, rc, out, error, {}, package)
                if reason is not None and not reason.startswith("no reference"):
                    print(f"not recorded: {job.key}: {reason}", file=sys.stderr)
                    return 1
                refs[job.key] = check.digest(rc, out)
            print(f"{workload} seed {seed}: {len(refs)} jobs recorded", flush=True)
    check.REFERENCES.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
