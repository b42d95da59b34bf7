"""Experiment drivers: one module per paper table/figure.

- :mod:`repro.experiments.tables` — Tables I, II, III
- :mod:`repro.experiments.fig4` — equivalent performance sweep
- :mod:`repro.experiments.fig5` — node fluctuation + Table IV
- :mod:`repro.experiments.ablations` — design-choice ablations + HOD
- :mod:`repro.experiments.common` — workload runners
"""

from . import ablations, common, fig4, fig5, tables

__all__ = ["ablations", "common", "fig4", "fig5", "tables"]
