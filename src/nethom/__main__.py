import os
import sys

# before numpy loads: nethom needs no BLAS threads, whose workers spin CPU and sum dot products by core count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
