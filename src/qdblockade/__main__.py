"""The entry point of ``python -m qdblockade`` and the ``qdblockade`` script.

This module imports no NumPy, so that BLAS's thread count can be set before
NumPy loads BLAS, which reads it once.
"""

import os


def run() -> None:
    """Give BLAS one thread unless the environment sets a count, then run
    :func:`qdblockade.cli.run`, which does not return.

    ``steady_state_grid`` solves on every CPU, and BLAS threads inside each
    solve oversubscribe them.  Only this process's environment is set: a
    library caller's is left as it is.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import run as run_cli

    run_cli()


if __name__ == "__main__":
    run()
