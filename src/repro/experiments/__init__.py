"""Experiment drivers: one module per table/figure of the paper.

Each experiment builds fresh victims, applies the attack through the
calibrated coupling chain, and returns a structured result with a
``render()`` method that prints the same rows/series the paper reports.
The ``deepnote`` CLI exposes them interactively, ``tools/make_results.py``
renders them into ``results/``, and ``tests/test_paper_shapes.py``
asserts their shapes.
"""

from .apps import DVRVictim, Ext4Victim, RocksDBVictim, UbuntuVictim
from .figure2 import Figure2Result, run_figure2
from .table1 import Table1Result, run_table1
from .table2 import Table2Result, run_table2
from .table3 import Table3Result, run_table3
from .ablations import (
    run_defense_ablation,
    run_drive_type_ablation,
    run_material_ablation,
    run_source_level_ablation,
    run_water_conditions_ablation,
)
from .objectives import ObjectiveOutcome, run_objective_comparison

__all__ = [
    "Ext4Victim",
    "UbuntuVictim",
    "RocksDBVictim",
    "DVRVictim",
    "ObjectiveOutcome",
    "run_objective_comparison",
    "run_drive_type_ablation",
    "run_figure2",
    "Figure2Result",
    "run_table1",
    "Table1Result",
    "run_table2",
    "Table2Result",
    "run_table3",
    "Table3Result",
    "run_material_ablation",
    "run_source_level_ablation",
    "run_water_conditions_ablation",
    "run_defense_ablation",
]
