"""Chimera's contribution: CHBP binary patching + runtime mechanisms.

Public entry points:

* :class:`~repro.core.rewriter.ChimeraRewriter` — static rewriting
  (upgrade/downgrade a binary for a target ISA profile);
* :class:`~repro.core.runtime.ChimeraRuntime` — kernel-side fault
  handling that recovers the deterministic faults SMILE raises;
* :class:`~repro.core.mmview.MMViewProcess` — the multi-address-space
  process model used for cross-core migration;
* :func:`~repro.core.scheduler.schedule` — the one work-stealing event
  loop of the evaluation; :class:`~repro.core.scheduler.WorkStealingScheduler`
  runs it on model-table costs (the DES) and
  :class:`~repro.core.machine_runner.MeasuredScheduler` on measured
  executions of the real binaries.
"""

from repro.core.rewriter import ChimeraRewriter, RewriteResult
from repro.core.runtime import ChimeraRuntime
from repro.core.smile import SmileTrampoline
from repro.core.fault_table import FaultTable

__all__ = [
    "ChimeraRewriter",
    "RewriteResult",
    "ChimeraRuntime",
    "SmileTrampoline",
    "FaultTable",
]
