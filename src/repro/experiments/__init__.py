"""Runnable reproductions of every table and figure in the paper.

Every experiment is a declarative scenario spec registered in
``repro.scenarios.builtin`` and executed by the generic runner: ``python
-m repro list`` shows them, ``python -m repro run <name>`` runs one, and
``execute(get_scenario(name).with_datasets(...))`` runs one from Python.
See EXPERIMENTS.md for the scenario -> paper-artifact map.

The modules below hold the per-artifact kernels the evaluation kinds in
``repro.scenarios.evaluations`` call; the ML harness and the result
sinks live beside them.

=============  =====================================================
Module         Kernels for
=============  =====================================================
``table1``     Table I — dataset-collection overview
``fig4``       Figure 4 — JS divergence vs signature length
``fig5``       Figure 5 — single-signature timing
``fig6``       Figures 2 and 6 — application signature heatmaps
``fig7``       Figure 7 — one application across three architectures
``crossarch``  Section IV-F — cross-architecture classification
=============  =====================================================

Figure 3 needs no kernel of its own: the ``grid`` kind runs the harness.
"""

from repro.experiments.harness import (
    DEFAULT_METHODS,
    ExperimentResult,
    run_method_on_segment,
)

__all__ = ["DEFAULT_METHODS", "ExperimentResult", "run_method_on_segment"]
