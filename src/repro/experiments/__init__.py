"""Experiment harness: figure reproductions, ablations, sweeps and reports.

``repro.experiments.figures`` holds one function per figure/table of the
paper's §V; ``repro.experiments.ablations`` holds the extra design-choice
studies. Every multi-run sweep among them is a declarative
:class:`~repro.api.specs.SweepSpec` run by :func:`repro.api.run_sweep`;
:func:`format_figure` is the plain-text renderer used by the benchmarks.

Every figure/ablation registers itself in :data:`repro.api.FIGURES` via
``@register_figure`` (together with its quick-scale parameters), and the
sweep-based ones accept the ``backend=``/``cache=``/``shard=``/
``replication=``/``comparison=`` keywords of ``run_sweep``; see
:mod:`repro.api` for the declarative spec layer and the CLI's generic
``run`` subcommand.
"""

from repro.experiments import ablations, figures
from repro.experiments.reporting import format_figure, format_table
from repro.experiments.runner import FigureResult

__all__ = [
    "figures",
    "ablations",
    "FigureResult",
    "format_figure",
    "format_table",
]
