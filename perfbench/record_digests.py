"""Record the output digests checked at the default workload seed.

    python3 perfbench/record_digests.py

Runs every operation of every workload once at ``workloads.DEFAULT_SEED`` and
writes the sha256 of each ``<label>.csv``, of each ``<label>_summary.json``
without its timing field, and of ``verify_report.json`` to digests.json. It
refuses to record outputs that fail any other check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    digests = {}
    run.WORK.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix=f"digests-{workload}-", dir=run.WORK))
        try:
            ops = run.operations(workload, workloads.DEFAULT_SEED, work)
            outcomes = [run.run_op(op, work, workload, workloads.DEFAULT_SEED, False, None)
                        for op in ops]
            problems = [problem for o in outcomes for problem in o.problems]
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            out = work / "out"
            if workload in workloads.VERIFY_WORKLOADS:
                digests[workload] = {
                    "verify_report.json": run.sha256((out / "verify_report.json").read_bytes())}
            else:
                digests[workload] = {op.label: {
                    "csv": run.sha256((out / f"{op.label}.csv").read_bytes()),
                    "summary": run.summary_digest((out / f"{op.label}_summary.json").read_text()),
                } for op in ops}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
