"""APT core: the paper's primary contribution.

Implements the Prepare -> Plan -> Adapt -> Run workflow of Fig. 4:

* :mod:`~repro.core.dryrun` — the cheap dry-run that samples one epoch per
  strategy, collecting communication volumes and node-access frequencies
  while skipping feature loading and model computation (§3.2);
* :mod:`~repro.core.costmodel` — the ``T = T_build + T_load + T_shuffle +
  T_train`` decomposition (Eq. 2), comparing only the strategy-specific
  terms with profiled communication-operator bandwidths;
* :mod:`~repro.core.planner` — ranks the strategies and selects the
  estimated-fastest one;
* :mod:`~repro.core.run` — the Adapt + Run steps: one training run as one
  state object (the epoch loop and its fault / membership / drift /
  checkpoint decisions);
* :mod:`~repro.core.apt` — the user-facing :class:`APT` facade.
"""

from repro.core.apt import APT
from repro.core.costmodel import CostEstimate, CostModel
from repro.core.dryrun import DryRun, DryRunStats, access_frequency_census
from repro.core.planner import Planner, PlanReport
from repro.core.report import APTRunResult, ReplanEvent, RunReport

__all__ = [
    "APT",
    "APTRunResult",
    "DryRun",
    "DryRunStats",
    "access_frequency_census",
    "CostModel",
    "CostEstimate",
    "Planner",
    "PlanReport",
    "RunReport",
    "ReplanEvent",
]
