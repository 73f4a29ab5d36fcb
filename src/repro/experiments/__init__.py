"""Reproduction harness: one runner per table/figure plus the ablations.

Each runner is a plain function returning a small result dataclass with the
numeric rows/series the corresponding paper artefact plots or tabulates, so
the benchmarks under ``benchmarks/`` and the report generator can share the
exact same code path.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".conditions": "headline_conditions",
        ".table1": "Table1Result reproduce_table1",
        ".figure1": "Figure1Result reproduce_figure1",
        ".figure2": "Figure2Result paper_bins_for reproduce_figure2",
        ".headline": "DatasetHeadlineResult EnvironmentAccuracy HeadlineResult"
            " reproduce_headline reproduce_headline_from_dataset",
        ".baseline_comparison": "BaselineComparisonResult"
            " reproduce_baseline_comparison",
        ".defense_ablation": "DefenseAblationResult reproduce_defense_ablation",
        ".ablation_classifiers": "ClassifierAblationResult"
            " reproduce_classifier_ablation",
        ".ablation_transfer": "TransferAblationResult reproduce_transfer_ablation",
        ".ablation_ciphers": "CipherAblationResult reproduce_cipher_ablation",
        ".report": "format_table render_experiment_report",
    },
)
