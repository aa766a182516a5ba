"""Names of the shared-gather execution path, kept for existing callers.

There is one round loop, :func:`~repro.core.simulator.simulate`; it reads
every trace through :class:`DistanceGather` chunks and binds opting-in
policies to a whole-trace gather when one fits its element cap.
``simulate_batched`` is the same function under its earlier name — callers
that share one gather across sibling policies pass it as ``gather=``.
"""

from repro.core.evaluation import DistanceGather, GatherWindow
from repro.core.simulator import simulate

__all__ = ["DistanceGather", "GatherWindow", "simulate_batched"]

simulate_batched = simulate
