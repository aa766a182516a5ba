"""Experiment harness: figure reproductions, ablations, sweeps and reports.

``repro.experiments.figures`` holds one function per figure/table of the
paper's §V; ``repro.experiments.ablations`` holds the extra design-choice
studies; :func:`sweep_experiment` runs closure-based multi-run sweeps
(spec-based ones go through :func:`repro.api.run_sweep`) and
:func:`format_figure` is the plain-text renderer used by the benchmarks.

Every figure/ablation registers itself in :data:`repro.api.FIGURES` via
``@register_figure`` (together with its quick-scale parameters), and the
sweep-based ones accept a ``backend=`` argument to parallelise replicates;
see :mod:`repro.api` for the declarative spec layer and the CLI's generic
``run`` subcommand.
"""

from repro.experiments import ablations, figures
from repro.experiments.reporting import format_figure, format_table
from repro.experiments.runner import FigureResult, sweep_experiment

__all__ = [
    "figures",
    "ablations",
    "FigureResult",
    "sweep_experiment",
    "format_figure",
    "format_table",
]
