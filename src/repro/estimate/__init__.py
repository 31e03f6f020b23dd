"""Estimation of quality metrics from SLIF annotations (paper Section 3).

All estimates are pure functions of an annotated
:class:`~repro.core.graph.Slif` and a :class:`~repro.core.partition.
Partition`; the preprocessed annotations make every metric a matter of
lookups, sums and one memoized recursion — the order-of-magnitude win
over re-synthesising from fine-grained formats that the paper reports.
"""

from repro.estimate.bitrate import (
    BusLoad,
    all_bus_loads,
    bus_bitrate,
    bus_capacity,
    bus_load,
    channel_bitrate,
)
from repro.estimate.breakdown import (
    Breakdown,
    ChannelShare,
    system_breakdowns,
    time_breakdown,
)
from repro.estimate.derate import DeratedEstimate, derated_estimate
from repro.estimate.engine import EstimateReport, Estimator, Violation, estimate
from repro.estimate.exectime import (
    ExecTimeEstimator,
    ExecTimeStats,
    execution_time,
    transfer_time,
)
from repro.estimate.incremental import (
    IncrementalEstimator,
    IncrementalStats,
    MoveRecord,
)
from repro.estimate.kernel import BatchKernel, kernel_backend
from repro.estimate.compile import CompiledGraph, compile_graph
from repro.estimate.io import (
    all_component_ios,
    component_io,
    cut_channel_names,
    io_violation,
)
from repro.estimate.size import (
    all_component_sizes,
    component_size,
    component_size_shared,
    object_size,
    size_violation,
)

__all__ = [
    "BatchKernel",
    "Breakdown",
    "BusLoad",
    "ChannelShare",
    "CompiledGraph",
    "DeratedEstimate",
    "EstimateReport",
    "Estimator",
    "ExecTimeEstimator",
    "ExecTimeStats",
    "IncrementalEstimator",
    "IncrementalStats",
    "MoveRecord",
    "Violation",
    "all_bus_loads",
    "all_component_ios",
    "all_component_sizes",
    "bus_bitrate",
    "bus_capacity",
    "bus_load",
    "channel_bitrate",
    "compile_graph",
    "component_io",
    "component_size",
    "component_size_shared",
    "cut_channel_names",
    "derated_estimate",
    "estimate",
    "execution_time",
    "io_violation",
    "kernel_backend",
    "object_size",
    "size_violation",
    "system_breakdowns",
    "time_breakdown",
    "transfer_time",
]
