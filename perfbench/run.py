"""adjrmat benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, so nothing needs to be built or installed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Span traces and temporary
outputs go to ``.bench_out/`` in the checkout.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS threads are pinned before numpy loads: at most two, and never more
# than the CPUs this process may run on, so hosts with more cores measure the
# same configuration as a two-core one
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def main() -> int:
    if not (ROOT / "src" / "adjrmat" / "cli.py").is_file():
        print(f"perfbench: no adjrmat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
