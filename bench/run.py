"""Run one fetps benchmark workload and print its metrics.

    python3 bench/run.py --workload fit2d --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/`, so the measured code is the code in the checkout. The last line of
stdout is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`; `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones. `--size smoke` runs the same workloads at toy sizes.
"""

import os
import sys
from pathlib import Path

# The BLAS thread cap only takes effect when it is set before numpy loads,
# so it is set here, ahead of every import that could pull numpy in.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv=None):
    if not (SRC_DIR / "fetps" / "__init__.py").is_file():
        print(f"bench: no fetps sources under {SRC_DIR}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import harness

    return harness.main(argv, src_dir=SRC_DIR)


if __name__ == "__main__":
    sys.exit(main())
