"""One cold start of adjrmat: import the CLI, then basis -> adjoint rep -> decomposition.

Run in a fresh process as ``python3 perfbench/setup_probe.py N`` with ``src``
on ``PYTHONPATH``; prints the seconds taken.  The benchmark harness also calls
:func:`cold_start` in its own process to warm it up before timing passes.
"""

import sys
import time


def cold_start(n: int) -> float:
    t0 = time.perf_counter()
    import adjrmat.cli  # noqa: F401  (the import is part of what a CLI user waits for)
    from adjrmat.adjoint_tensor import adjoint_rep, build_decomposition
    from adjrmat.liealg import build_basis

    # validate=n <= 5 matches what the CLI passes
    build_decomposition(adjoint_rep(build_basis(n), validate=n <= 5))
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(cold_start(int(sys.argv[1]))))
