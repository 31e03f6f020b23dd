"""Size estimation (Section 3.3, Equations 4 and 5).

Software size (bytes on a standard processor), hardware size (gates on a
custom processor) and memory size (words in a memory) are all the same
computation once the per-technology ``size`` weights exist: sum the
weight of every functional object mapped to the component.

    Size(p) = sum over bv in p.BV of GetBvSize(bv, p)
    Size(m) = sum over v  in m.V  of GetBvSize(v, m)

The paper notes plain summation overestimates datapath-intensive
hardware because behaviors share functional units; the refinement it
cites ([1]) is available through :func:`component_size_shared`, which
re-synthesises the mapped behavior set with sharing via
:mod:`repro.synth.datapath` when the behaviors carry operation profiles.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.annotations import left_sum
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import EstimationError


def object_size(slif: Slif, obj: str, component: str) -> float:
    """``GetBvSize(bv, pm)``: one object's preprocessed size weight."""
    node = slif.get_node(obj)
    comp = slif.get_component(component)
    if not hasattr(node, "size"):
        raise EstimationError(f"object {obj!r} carries no size annotations")
    return node.size.get(comp.technology.name)


def component_size(slif: Slif, partition: Partition, component: str) -> float:
    """``Size(p)`` / ``Size(m)`` (Eqs. 4–5): summed preprocessed weights.

    Works uniformly for processors, ASICs and memories; the unit is the
    component technology's size unit (bytes / gates / words).
    """
    if component not in slif.processors and component not in slif.memories:
        raise EstimationError(f"no processor or memory named {component!r}")
    return left_sum(
        object_size(slif, obj, component)
        for obj in partition.objects_on(component)
    )


def all_component_sizes(slif: Slif, partition: Partition) -> Dict[str, float]:
    """:func:`component_size` for every processor and memory."""
    names = list(slif.processors) + list(slif.memories)
    return {name: component_size(slif, partition, name) for name in names}


def size_violation(
    slif: Slif, partition: Partition, component: str
) -> Optional[float]:
    """Amount by which a component exceeds its size constraint.

    Returns ``None`` when the component is unconstrained, ``0.0`` when
    it fits, and the (positive) excess otherwise.
    """
    comp = slif.get_component(component)
    if comp.size_constraint is None:
        return None
    used = component_size(slif, partition, component)
    return max(0.0, used - comp.size_constraint)


def component_size_shared(
    slif: Slif,
    partition: Partition,
    component: str,
) -> float:
    """Sharing-aware hardware size (the paper's [1] refinement).

    For a custom processor whose mapped behaviors carry operation
    profiles, re-synthesise the whole behavior *set* so functional units
    are shared across behaviors (only one multiplier is needed no matter
    how many behaviors multiply, if they never multiply simultaneously).
    Falls back to the plain Eq. 4 sum when profiles are missing or the
    component is not a custom processor — summation is accurate there.
    """
    comp = slif.get_component(component)
    plain = component_size(slif, partition, component)
    if component not in slif.processors or not slif.processors[component].is_custom:
        return plain
    from repro.synth.datapath import synthesize_behavior_set
    from repro.synth.techlib import default_library

    profiles = []
    for obj in partition.objects_on(component):
        behavior = slif.behaviors.get(obj)
        if behavior is None:
            continue  # variables keep their summed storage size
        if behavior.op_profile is None:
            return plain
        profiles.append(behavior.op_profile)
    if not profiles:
        return plain
    lib = default_library()
    asic = lib.asic_named(comp.technology.name)
    if asic is None:
        return plain
    variable_area = plain - left_sum(
        slif.behaviors[obj].size.get(comp.technology.name)
        for obj in partition.objects_on(component)
        if obj in slif.behaviors
    )
    shared = synthesize_behavior_set(profiles, asic).area
    return shared + variable_area
