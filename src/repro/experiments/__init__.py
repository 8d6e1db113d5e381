"""Experiment drivers: one module per table/figure of the paper.

Each experiment builds fresh victims, applies the attack through the
calibrated coupling chain, and returns a structured result with a
``render()`` method that prints the same rows/series the paper reports.
The ``deepnote`` CLI exposes them interactively, ``tools/make_results.py``
renders them into ``results/``, and ``tests/test_paper_shapes.py``
asserts their shapes.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "apps": ("Ext4Victim", "UbuntuVictim", "RocksDBVictim", "DVRVictim"),
        "figure2": ("run_figure2", "Figure2Result"),
        "table1": ("run_table1", "Table1Result"),
        "table2": ("run_table2", "Table2Result"),
        "table3": ("run_table3", "Table3Result"),
        "ablations": (
            "run_drive_type_ablation",
            "run_material_ablation",
            "run_source_level_ablation",
            "run_water_conditions_ablation",
            "run_defense_ablation",
        ),
        "objectives": ("ObjectiveOutcome", "run_objective_comparison"),
    },
)
