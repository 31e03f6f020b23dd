"""Property-based tests on the VHDL front end and synthesis models.

Random specification generators exercise the lexer/parser/builder
pipeline; the invariants: parsing never crashes on generated-legal
sources, frequencies respect min <= avg <= max, schedules respect
dependences and budgets, and inlining preserves total access traffic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth.ops import OpClass, OpDag
from repro.synth.scheduler import list_schedule
from repro.synth.techlib import default_library
from repro.vhdl.slif_builder import build_slif_from_source

# ---------------------------------------------------------------------------
# random straight-line VHDL processes

_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def vhdl_sources(draw) -> str:
    n_vars = draw(st.integers(1, 4))
    var_names = ["a", "b", "c", "d"][:n_vars]
    decls = "\n".join(
        f"    variable {v} : integer range 0 to 255;" for v in var_names
    )
    stmts = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 3))
        lhs = draw(st.sampled_from(var_names))
        rhs = draw(st.sampled_from(var_names))
        if kind == 0:
            stmts.append(f"    {lhs} := {rhs} + 1;")
        elif kind == 1:
            trips = draw(st.integers(1, 9))
            stmts.append(
                f"    for i in 1 to {trips} loop\n"
                f"        {lhs} := {lhs} + {rhs};\n"
                f"    end loop;"
            )
        elif kind == 2:
            stmts.append(
                f"    if ({lhs} > 3) then\n"
                f"        {lhs} := {rhs} * 2;\n"
                f"    end if;"
            )
        else:
            stmts.append(f"    {lhs} := {rhs} mod 7;")
    body = "\n".join(stmts)
    return (
        "entity E is end;\n"
        "Main: process\n"
        f"{decls}\n"
        "begin\n"
        f"{body}\n"
        "    wait;\n"
        "end process;\n"
    )


@given(vhdl_sources())
@settings(max_examples=40, deadline=None)
def test_generated_sources_build(source):
    g = build_slif_from_source(source)
    assert "Main" in g.behaviors
    assert g.behaviors["Main"].is_process
    # every channel's min/avg/max are ordered and non-negative
    for ch in g.channels.values():
        assert 0 <= ch.accmin <= ch.accfreq <= ch.accmax
        assert ch.bits >= 0


@given(vhdl_sources())
@settings(max_examples=30, deadline=None)
def test_annotation_after_build_always_positive_sizes(source):
    from repro.synth.annotate import annotate_slif

    g = build_slif_from_source(source)
    annotate_slif(g)
    for b in g.behaviors.values():
        assert b.size["proc"] > 0  # at least the call overhead


# ---------------------------------------------------------------------------
# random op DAGs for the scheduler


@st.composite
def op_dags(draw) -> OpDag:
    dag = OpDag()
    n = draw(st.integers(1, 12))
    classes = [
        OpClass.ALU,
        OpClass.MULT,
        OpClass.MEM,
        OpClass.MOVE,
        OpClass.BRANCH,
    ]
    for i in range(n):
        preds = ()
        if i > 0:
            preds = tuple(
                sorted(
                    draw(
                        st.sets(st.integers(0, i - 1), min_size=0, max_size=min(i, 3))
                    )
                )
            )
        dag.add(draw(st.sampled_from(classes)), preds=preds)
    return dag


@given(op_dags())
@settings(max_examples=50, deadline=None)
def test_schedule_respects_dependences_and_budget(dag):
    model = default_library().asics["asic"]
    schedule = list_schedule(dag, model)
    for i, op in enumerate(dag.ops):
        for pred in op.preds:
            assert schedule.start[i] >= schedule.finish[pred] - 1e-12
    for cls, used in schedule.units_used.items():
        assert used <= model.budget(cls)
    # latency is bounded below by the critical path and above by the
    # fully-serial schedule
    delays = {cls: model.op_delay(cls) for cls in OpClass}
    critical = dag.critical_path_length(delays)
    serial = sum(model.op_delay(op.cls) for op in dag.ops)
    assert critical - 1e-9 <= schedule.latency <= serial + 1e-9


@given(op_dags())
@settings(max_examples=30, deadline=None)
def test_schedule_deterministic(dag):
    model = default_library().asics["asic"]
    a = list_schedule(dag, model)
    b = list_schedule(dag, model)
    assert a.start == b.start and a.finish == b.finish


# ---------------------------------------------------------------------------
# inlining conservation


@given(vhdl_sources())
@settings(max_examples=20, deadline=None)
def test_inline_conserves_variable_traffic(source):
    """Inlining every procedure never changes total variable access
    frequency weighted per process execution (traffic is conserved)."""
    extended = source.replace(
        "    wait;",
        "    Helper;\n    wait;",
    ) + (
        "procedure Helper is\nbegin\n    a := a + 1;\nend;\n"
    )
    g = build_slif_from_source(extended)
    from repro.transform.inline import inline_all_single_callers

    def traffic(graph):
        total = {}
        for ch in graph.channels.values():
            if ch.dst in graph.variables:
                # weight by how often the source itself runs per Main run
                mult = 1.0
                call = graph.channels.get(f"Main->{ch.src}")
                if call is not None:
                    mult = call.accfreq
                total[ch.dst] = total.get(ch.dst, 0.0) + mult * ch.accfreq
        return total

    before = traffic(g)
    inline_all_single_callers(g)
    after = traffic(g)
    for var, amount in before.items():
        assert abs(after.get(var, 0.0) - amount) < 1e-6


# ---------------------------------------------------------------------------
# slif-synth documents with one field of the wrong type or out of range

#: fields a drawn document may carry, per object list
SYNTH_FIELDS = {
    "behaviors": ("name", "process", "ict", "size", "parameter_bits"),
    "variables": ("name", "bits", "elements", "ict", "size", "concurrent"),
    "ports": ("name", "direction", "bits"),
    "channels": (
        "src", "dst", "kind", "accfreq", "accmin", "accmax", "bits", "tag",
    ),
}

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),  # nan and infinities too
    st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
    st.sampled_from([10**400, -(10**400), 1e308, -1, 0]),
)


@st.composite
def malformed_synth_documents(draw) -> str:
    """A small ``slif gen`` document with one field's value replaced."""
    import json

    from repro.synth.gen import GenConfig, generate_text

    config = GenConfig(
        behaviors=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 2**16)),
        variables=draw(st.integers(0, 3)),
        ports=draw(st.integers(0, 2)),
    )
    data = json.loads(generate_text(config))
    lists = [key for key in SYNTH_FIELDS if data[key]]
    kind = draw(st.sampled_from(lists))
    target = draw(st.sampled_from(data[kind]))
    field = draw(st.sampled_from(SYNTH_FIELDS[kind]))
    value = draw(json_values)
    if field in ("ict", "size") and draw(st.booleans()):
        target.setdefault(field, {})["proc"] = value  # one weight
    else:
        target[field] = value
    return json.dumps(data)


@given(malformed_synth_documents())
@settings(max_examples=40, deadline=None)
def test_malformed_synth_documents_estimate_or_raise_slif_error(text):
    """Every such document estimates in both concurrency modes or raises
    :class:`~repro.errors.SlifError`; nothing else escapes, and every
    answer encodes as strict JSON."""
    from _helpers import strict_json
    from repro import api
    from repro.api.types import canonical_json
    from repro.errors import SlifError

    for concurrent in (False, True):
        try:
            result = api.estimate({"spec": text, "concurrent": concurrent})
        except SlifError:
            continue
        strict_json(canonical_json(result.to_dict()))
