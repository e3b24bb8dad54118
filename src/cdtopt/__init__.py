"""Topology optimization with an analytic dual knapsack core.

Subpackages: :mod:`cdtopt.knapsack` (the analytic 0-1 solver),
:mod:`cdtopt.fem` (linear-elastic finite elements), :mod:`cdtopt.driver`
(the alternating outer loop), :mod:`cdtopt.baselines` (SIMP and BESO),
:mod:`cdtopt.problems` (benchmark models), :mod:`cdtopt.analytic`
(closed-form demonstrations) and :mod:`cdtopt.cli`.
"""

import logging

from . import analytic, baselines, cli, driver, fem, knapsack, problems

# library logging is silent unless the application configures a handler
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = ["analytic", "baselines", "cli", "driver", "fem", "knapsack", "problems"]
__version__ = "0.1.0"
