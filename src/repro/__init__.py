"""repro — a reproduction of SLIF, the specification-level intermediate format.

SLIF (Vahid, UCR TR CS-94-06 / DATE 1995) is a coarse-grained internal
format for system-level design.  Functionality is represented as an
*access graph* whose nodes are behaviors (processes and procedures) and
variables, and whose edges ("channels") are accesses — subroutine calls,
variable reads/writes, and message passes.  Structural objects —
processors/ASICs, memories and buses — partition the functional objects,
and preprocessed annotations allow design metrics (execution time,
bitrate, software/hardware/memory size, I/O pins) to be estimated in
time proportional to the graph rather than to the specification.

The package is organised as:

``repro.core``
    The SLIF data model: nodes, channels, components, the access graph,
    partitions, validation, serialization and DOT export.
``repro.vhdl``
    A VHDL-subset front end that parses behavioral specifications and
    builds annotated SLIF access graphs from them (including a static
    profiler for access frequencies).
``repro.synth``
    Pre-synthesis weight generators: an analytic compiler model for
    standard processors, a datapath/list-scheduling model for ASICs, and
    a technology library.
``repro.estimate``
    The estimation equations of the paper (execution time, bitrate,
    size, I/O) plus an incremental estimator for partitioning loops.
``repro.partition``
    SpecSyn-style allocation and partitioning algorithms driven by the
    estimators.
``repro.transform``
    Specification transformations (procedure inlining, process merging).
``repro.cdfg``
    Fine-grained comparison formats (CDFG and an ADD-like format) used
    to regenerate the paper's format-size comparison.
``repro.specs``
    Generators for the paper's four benchmark specifications
    (answering machine, ethernet coprocessor, fuzzy controller,
    volume-measuring instrument).
``repro.obs``
    The instrumentation layer: counters/gauges/histograms, span
    tracing, JSONL export and summary reporting — off by default,
    enabled by ``repro.obs.enable()`` or the CLI's ``--stats`` /
    ``--trace-out`` flags.
``repro.api``
    The public facade: typed request/response dataclasses, reusable
    parsed+annotated sessions, and the five top-level functions
    (``load``/``estimate``/``partition``/``simulate``/``explore``)
    that the CLI, the HTTP server and library users all share.
``repro.serve``
    The HTTP serving layer: a stdlib-only threaded JSON server over
    the facade, with an LRU graph cache that a warm request finds by
    matching its spec's content with ``==`` (no hashing), memoized
    estimate answers that identical requests share one flight of (no
    batch window), and bounded-in-flight backpressure (``slif serve``).

Quickstart::

    from repro import api
    result = api.estimate("fuzzy")          # parse + annotate + estimate
    print(result.render())
"""

from repro.errors import (
    EstimationError,
    ParseError,
    PartitionError,
    RecursionCycleError,
    SlifError,
    SlifNameError,
)
from repro.core import (
    AccessKind,
    Behavior,
    Bus,
    Channel,
    Memory,
    Partition,
    Port,
    PortDirection,
    Processor,
    Slif,
    SlifBuilder,
    Variable,
)
from repro import obs
from repro import api
from repro.api.session import DesignSystem, build_system

__version__ = "1.0.0"

__all__ = [
    "AccessKind",
    "api",
    "Behavior",
    "Bus",
    "Channel",
    "DesignSystem",
    "EstimationError",
    "Memory",
    "ParseError",
    "Partition",
    "PartitionError",
    "Port",
    "PortDirection",
    "Processor",
    "RecursionCycleError",
    "Slif",
    "SlifBuilder",
    "SlifError",
    "SlifNameError",
    "Variable",
    "build_system",
    "obs",
    "__version__",
]
