"""Mixed-precision multigrid GMRES benchmark on a 27-point stencil system.

The pipeline: generate a synthetic 27-point-stencil problem over a
rank-decomposed structured grid, solve it with double-precision GMRES
and with mixed double/single GMRES-IR — both preconditioned by a
geometric multigrid V-cycle with multicolor Gauss-Seidel smoothing —
and report penalized mixed-precision throughput.  ``run_benchmark`` runs
the three phases (validation, then the timed mixed and double solves) and
returns the report; ``main``, run by ``python -m mxpbench``, is the command
line.
"""

__version__ = "0.1.0"

from .bench import BenchConfig, main, run_benchmark

__all__ = ["BenchConfig", "main", "run_benchmark", "__version__"]
