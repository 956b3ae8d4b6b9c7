"""End-to-end and per-layer benchmark of exact top-K serving.

Run from the root of a source checkout:

    python3 mipsbench/run.py --workload batch-mm --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics (see ``mipsbench/METRICS.md``).  Every call's answer is
checked for exactness outside the timed region.  Human-readable lines go
first; the last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any call failed or the checkout has no ``src/repro``.
"""
import time

T0 = time.perf_counter()  # set-up is measured from here

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

OUT_DIR = os.path.join("mipsbench", "out")
#: OpenBLAS threads of each process, by workload.  Spark's kernels take
#: milliseconds, so there a second thread per process would only spin and
#: take cores from the JVM.
BLAS_THREADS = {"spark-serve": 1}
DEFAULT_BLAS_THREADS = 2


def _prepare_process(root: str, blas_threads: int) -> None:
    """Pin the environment before NumPy or Spark is imported.

    OpenBLAS is capped at ``blas_threads`` (the Spark workers inherit the
    variable), the checkout's ``src`` is put first on the import path of
    this process and of the Spark workers, and temporary files stay under
    ``mipsbench/out``.
    """
    src = os.path.join(root, "src")
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    tmp = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, src)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="grid scale (the smoke self-test uses < 1)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: run from the root of a checkout; no src/repro under {root}", file=sys.stderr)
        return 2
    _prepare_process(root, BLAS_THREADS.get(args.workload, DEFAULT_BLAS_THREADS))

    from bench import run  # noqa: E402  (both need the prepared environment)
    from workloads import WORKLOADS  # noqa: E402

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        scale=args.scale,
        t0=T0,
        out_dir=OUT_DIR,
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
