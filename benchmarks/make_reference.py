#!/usr/bin/env python3
"""Write the reference outputs the checks compare against.

Runs every job of every workload once at the default seed and stores what
``checks.reference_entry`` keeps of its output under ``benchmarks/reference``.
Run from the repository root, only when the program's verdicts are meant to
change::

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import sys

from run import HERE, OUT, SRC, cap_blas_threads, run_job

DEFAULT_SEED = 42


def main() -> int:
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from qnbench.cli import main as cli_main

    from checks import REFERENCE_DIR, reference_entry
    from workloads import WORKLOADS, build_jobs

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        jobs = build_jobs(workload, DEFAULT_SEED, OUT / "inputs" / f"{workload}-{DEFAULT_SEED}")
        entries = {}
        for job in jobs:
            record = run_job(cli_main, job)
            if record.error is not None:
                sys.stderr.write(f"{job.name}: {record.error}\n")
                return 1
            entries[job.name] = reference_entry(job, json.loads(record.stdout))
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(entries, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)} ({len(entries)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
