#!/usr/bin/env python3
"""Record the reference output digests that ``run.py`` checks at seed 0.

Usage (from the repository root):

    python3 perfbench/record_reference.py

Runs every workload's pipeline twice at seed 0, requires the two runs to
agree, and writes their digests with the numpy/BLAS fingerprint to
perfbench/reference.json.  Rerun it only for a change that is meant to
alter the pipeline's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench

SEED = 0


def main() -> int:
    bench.import_program()
    from fullpose import dataio
    from pipeline import Pipeline
    from workloads import WORKLOADS

    digests = {}
    for name, workload in WORKLOADS.items():
        work = bench.WORK_DIR / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            config_path = work / "config.json"
            config_path.write_text(json.dumps(workload.config), encoding="utf-8")
            pipe = Pipeline(workload, SEED, work, config_path, dataio.load_config(config_path))
            first = pipe.run()
            pipe.expected = first.digests
            second = pipe.run()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if first.failed or second.failed:
            sys.exit(f"{name}: {first.errors + second.errors}")
        digests[name] = first.digests
        print(f"{name}: {len(first.digests)} digests")
    env = bench.environment()
    bench.REFERENCE.write_text(json.dumps(
        {"seed": SEED, "fingerprint": bench.fingerprint(env), "env": env, "workloads": digests},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
