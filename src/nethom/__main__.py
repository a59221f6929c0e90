import gc
import os
import sys

# before numpy loads: nethom needs no BLAS threads, whose workers spin CPU and sum dot products by core count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cli  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    """Run one command line, as ``nethom`` and ``python -m nethom`` do, and return its exit code.

    Then, also when the command raises (``--help``, ``--version`` and usage
    errors raise ``SystemExit``), freeze the collector: every tracked object
    moves to the permanent generation, which shutdown's full collections
    skip. Nothing is allocated, and atexit handlers and stdio flushing run
    as before. :func:`nethom.cli.main` leaves the collector alone, for
    callers that go on running.
    """
    try:
        return cli.main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
