"""Annotation containers shared by SLIF nodes and components.

Section 2.4 of the paper annotates every behavior and variable node with
*lists* of weights — one internal-computation-time (``ict``) weight and
one ``size`` weight per type of system component the node could be
implemented on.  We realise those lists as :class:`WeightMap`, a small
mapping from *technology name* to a numeric weight with precise error
reporting, because the estimation equations (Section 3) only ever look a
single component type up (``GetBvIct`` / ``GetBvSize``).

The module also provides the bit-counting helpers of Section 2.4.1: the
number of bits transferred by a channel access depends on whether the
destination is a scalar, an array (element bits plus address bits), a
behavior (sum of parameter bits) or a message.

Every estimate that adds floats adds them with :func:`left_sum`, so an
answer does not depend on which Python computed it.
"""

from __future__ import annotations

import math
import operator
import reprlib
import sys
from functools import reduce
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import EstimationError

_FLOAT_MAX = sys.float_info.max


class WeightMap:
    """Per-technology weights for a SLIF node (``ict_list`` / ``size_list``).

    The paper's formal definition attaches ``<comp, val>`` pairs to each
    behavior/variable node, one per component the node could possibly be
    implemented on.  Because weights are really a property of a component
    *type* (all instances of one processor type execute a behavior in the
    same time), the map is keyed by technology name; components expose the
    technology they instantiate.

    >>> w = WeightMap({"proc": 80.0, "asic": 10.0})
    >>> w["asic"]
    10.0
    >>> w.get("mem", default=0.0)
    0.0
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Optional[Mapping[str, float]] = None) -> None:
        self._weights: Dict[str, float] = {}
        if weights:
            for tech, val in weights.items():
                self.set(tech, val)

    def set(self, technology: str, value: float) -> None:
        """Record ``value`` as this node's weight on ``technology``.

        A weight is a finite number >= 0: anything else raises
        ``ValueError``, or ``TypeError`` when it is not a number.
        """
        if not 0 <= value <= _FLOAT_MAX:  # also false for nan
            raise ValueError(
                f"weight for technology {technology!r} must be a finite "
                f"number >= 0, got {reprlib.repr(value)}"
            )
        self._weights[technology] = float(value)

    def get(self, technology: str, default: Optional[float] = None) -> float:
        """Look a technology's weight up, falling back to ``default``.

        Raises :class:`~repro.errors.EstimationError` when the technology
        is unknown and no default was supplied — a missing weight means an
        estimate was requested for a mapping that was never preprocessed.
        """
        if technology in self._weights:
            return self._weights[technology]
        if default is not None:
            return default
        known = ", ".join(sorted(self._weights)) or "<none>"
        raise EstimationError(
            f"no weight recorded for technology {technology!r} "
            f"(annotated technologies: {known})"
        )

    def __getitem__(self, technology: str) -> float:
        return self.get(technology)

    def __contains__(self, technology: str) -> bool:
        return technology in self._weights

    def __iter__(self) -> Iterator[str]:
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeightMap):
            return self._weights == other._weights
        if isinstance(other, Mapping):
            return self._weights == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._weights.items()))
        return f"WeightMap({inner})"

    def items(self) -> Iterable[Tuple[str, float]]:
        return self._weights.items()

    def technologies(self) -> Iterable[str]:
        return self._weights.keys()

    def row(self, technologies: Iterable[str]) -> List[Optional[float]]:
        """The weight per technology, in order; None where never annotated."""
        return list(map(self._weights.get, technologies))

    def copy(self) -> "WeightMap":
        return WeightMap(self._weights)

    def merge_sum(self, other: "WeightMap", scale: float = 1.0) -> None:
        """Add ``other``'s weights (times ``scale``) into this map in place.

        Used by transformations: inlining a procedure folds the callee's
        ict/size into the caller for every technology both are annotated
        with; technologies present on only one side keep that side's value.
        """
        for tech, val in other.items():
            self._weights[tech] = self._weights.get(tech, 0.0) + scale * val

    def to_dict(self) -> Dict[str, float]:
        return dict(self._weights)


def left_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, starting from int 0.

    This is what builtin :func:`sum` did up to Python 3.11.  Since 3.12
    it adds floats with compensated summation, so its result depends on
    the interpreter.  Every float sum that feeds a compared answer uses
    this instead, and the batch kernel repeats the same additions in the
    same order, so both give the same float on every Python.

    >>> left_sum([0.1] * 10)
    0.9999999999999999
    >>> left_sum([])
    0
    """
    return reduce(operator.add, values, 0)


def address_bits(element_count: int) -> int:
    """Number of address bits needed to select one of ``element_count`` items.

    Section 2.4.1: an access to an array of scalars transfers the element's
    bits *plus* the bits needed to specify the element's address.  A
    128-element array needs 7 address bits.
    """
    if element_count < 1:
        raise ValueError(f"element count must be >= 1, got {element_count}")
    if element_count == 1:
        return 0
    return int(math.ceil(math.log2(element_count)))


def scalar_access_bits(value_bits: int) -> int:
    """Bits transferred per access to a scalar: just its encoding width."""
    if value_bits < 1:
        raise ValueError(f"scalar width must be >= 1 bit, got {value_bits}")
    return value_bits


def array_access_bits(element_bits: int, element_count: int) -> int:
    """Bits transferred per access to an array of scalars.

    The element encoding plus the element-address bits; complex data items
    (multi-dimensional arrays, records) are first linearised to an array
    of scalars by the front end, so this function covers them too.
    """
    return scalar_access_bits(element_bits) + address_bits(element_count)


def call_access_bits(parameter_bits: Iterable[int]) -> int:
    """Bits transferred per behavior access: all parameters' bits summed.

    A parameterless call transfers 0 data bits (the access still costs
    the callee's execution time).
    """
    total = 0
    for bits in parameter_bits:
        if bits < 0:
            raise ValueError(f"parameter width must be >= 0, got {bits}")
        total += bits
    return total


def message_access_bits(message_bits: int) -> int:
    """Bits transferred per message pass: the message encoding width."""
    if message_bits < 1:
        raise ValueError(f"message width must be >= 1 bit, got {message_bits}")
    return message_bits
