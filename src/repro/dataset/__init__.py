"""The IITM-Bandersnatch-style dataset.

The paper contributes a dataset of 100 viewers, each data point being
``{encrypted traces, ground truth choices}`` plus the operational and
behavioural attributes of Table I.  Real captures cannot be collected
offline, so this package generates the synthetic equivalent: a viewer
population spanning the same attribute grid, one simulated viewing session
per viewer, ground-truth choices recorded alongside, and (optionally) each
trace persisted as a pcap file next to a JSON metadata index.

Populations beyond memory scale go through the streaming and sharding
layers: :func:`iter_collect_dataset` yields points as the engine completes
them, :class:`DatasetWriter` persists them one at a time, and
:mod:`repro.dataset.shards` splits a population into independent on-disk
shard directories whose summaries merge back into one population summary.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".attributes": "BEHAVIORAL_ATTRIBUTES OPERATIONAL_ATTRIBUTES table1_rows",
        ".population": "Viewer generate_population split_viewers"
            " viewers_from_metadata_entries",
        ".collection": "DataPoint collect_dataset"
            " iter_collect_dataset",
        ".format": "DatasetWriter dataset_is_complete dataset_is_partial"
            " load_dataset_metadata save_dataset_metadata session_config_from_metadata"
            " snapshot_dataset_files",
        ".loader": "LoadedDataPoint LoadedDataset iter_released_points"
            " load_released_dataset",
        ".iitm": "DatasetSummary IITMBandersnatchDataset SummaryAccumulator",
        ".shards": "ShardedDataset ShardSlice ShardSummary discover_shard_directories"
            " generate_shard_subset generate_sharded_dataset"
            " iter_consistent_shard_metadata iter_shard_training_sessions"
            " merge_shard_summaries parse_shard_selection plan_shards"
            " quarantine_partial_shard shard_summary_from_metadata"
            " stitch_sharded_dataset",
    },
)
