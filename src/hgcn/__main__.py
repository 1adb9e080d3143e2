"""The `hgcn` command, also run as `python -m hgcn`.

Each layer's matmul is one gemm of up to a few hundred rows, which
OpenBLAS would split across threads; on a shared host that ran slower
than one thread. So the command defaults the BLAS thread count to 1
before numpy loads. A value set in the environment is kept, and
`import hgcn.cli` alone changes nothing.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402  (numpy loads here, after the defaults)

if __name__ == "__main__":
    sys.exit(main())
