"""Regenerate record.json: the outcome code of the first ops of each seed.

    python3 perfbench/make_record.py

For session-mix and wide-board, and every seed in RECORD_SEEDS, the record
holds the outcome codes (verdict, and trip flags on wide-board) of the first
MIN_OPS ops, separated by spaces.  Every run of those workloads on a recorded
seed compares each of its first MIN_OPS ops with this record, so a change that
alters any verdict or trip flag there fails the benchmark's output check.
Regenerate it only when the workload generators change, never to absorb a
changed verdict.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
# The BLAS thread count changes the rounding of the solves; run.py uses one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from workloads import MIN_OPS, RECORD_SEEDS, SessionMix, WideBoard  # noqa: E402


def main():
    record = {}
    for cls in (SessionMix, WideBoard):
        per_seed = record[cls.name] = {}
        for seed in RECORD_SEEDS:
            w = cls(seed)
            per_seed[str(seed)] = " ".join(w.summary(w.run(w.op(i))) for i in range(MIN_OPS))
            print(cls.name, seed, flush=True)
    (HERE / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    main()
