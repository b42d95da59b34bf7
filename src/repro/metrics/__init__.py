"""Measurement and reporting utilities."""

from .ascii_plot import plot_series, plot_xy
from .report import WorkloadResult, format_table
from ..sim.monitor import CounterSet, StepSeries

__all__ = ["WorkloadResult", "format_table", "StepSeries", "CounterSet",
           "plot_series", "plot_xy"]
