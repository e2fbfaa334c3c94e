"""LACC benchmark entry point.

Usage, from the root of a checkout::

    python3 laccbench/run.py --workload serial-rmat --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced driver calls for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` spends half the time on untraced calls and
half on calls with every layer wrapped, and prints the per-layer metrics
(spans are written to ``laccbench/out/``, as are the proc backend's
temporary files).  Metric names and units come from
``BENCHMARK.json``; the last line of standard output is the result object.
The program is imported from ``src/`` of the same checkout, never from an
installed copy.  See README.md in this directory.
"""

import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def main() -> int:
    for need in (os.path.join(SRC, "repro", "__init__.py"), SPEC):
        if not os.path.isfile(need):
            print(f"laccbench: missing {need}; run from a repository checkout",
                  file=sys.stderr)
            return 2
    # the proc backend's segment registry goes under tempfile.gettempdir()
    tmp = os.path.join(HERE, "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, SRC)
    with warnings.catch_warnings():
        # the numba-missing notice: the benchmark pins the tier itself
        warnings.simplefilter("ignore", RuntimeWarning)
        import bench
    return bench.main(sys.argv[1:], SPEC)


if __name__ == "__main__":
    sys.exit(main())
