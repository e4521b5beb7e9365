"""Process-level parallelism for window analysis.

The paper's pipeline is embarrassingly parallel over packet windows and
honeyfarm months (the authors ran it across three supercomputing centers).
These helpers provide the laptop equivalent: a process-pool map with
chunking, a bounded in-order result stream, and a streaming accumulator that builds hierarchical hypersparse
matrices from packet shards in parallel.
"""

from .pool import (
    configured_processes,
    cpu_count,
    get_pool,
    parallel_map,
    shutdown_pools,
    stream_map,
)
from .shard import sharded_accumulate, sum_archive, update_peak_rss
from .streaming import parallel_accumulate, shard_packets

__all__ = [
    "parallel_map",
    "stream_map",
    "cpu_count",
    "configured_processes",
    "get_pool",
    "shutdown_pools",
    "parallel_accumulate",
    "shard_packets",
    "sharded_accumulate",
    "sum_archive",
    "update_peak_rss",
]
