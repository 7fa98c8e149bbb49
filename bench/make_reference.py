"""Record reference digests for the fixture operations without a golden file.

Usage: ``python3 bench/make_reference.py`` from the checkout root.  Each
operation runs once in a cold child, as in the benchmark, and its exit code
and output are stored as a SHA-256 digest in ``bench/reference.json``.
Re-record only when an output change is intended, and review the diff.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    reference = {}
    for ops in run.FIXTURE_WORKLOADS.values():
        for op in ops:
            if op.golden is not None:
                continue
            res, why, _ = run.spawn(op, False, run.WORK)
            if res is None or res["traceback"]:
                raise SystemExit(f"{op.name}: {why or res['traceback']}")
            reference[op.name] = {"argv": list(op.argv), "sha256": run.digest(res["code"], res["output"])}
            print(f"{op.name}: exit {res['code']}")
    run.WORK.rmdir()
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
