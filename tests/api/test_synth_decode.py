"""A ``slif-synth`` document is decoded once per resolution and build."""

import json
import types

import pytest

from repro import api
from repro.api import frontends
from repro.api.frontends import FRONTENDS
from repro.synth.gen import GenConfig, generate_text
from repro.synth.techlib import default_library


@pytest.fixture()
def decodes(monkeypatch):
    """Count ``json.loads`` calls made by the front-end module."""
    calls = []

    def loads(text, *args, **kwargs):
        calls.append(len(text))
        return json.loads(text, *args, **kwargs)

    monkeypatch.setattr(frontends, "json", types.SimpleNamespace(loads=loads))
    return calls


@pytest.fixture()
def document():
    return generate_text(GenConfig(behaviors=50, seed=2))


@pytest.fixture()
def path(tmp_path, document):
    target = tmp_path / "gen.json"
    target.write_text(document)
    return str(target)


def test_resolve_path_decodes_once(decodes, path):
    resolved = FRONTENDS.resolve(path)
    assert len(decodes) == 1
    assert resolved.payload is not None


def test_load_path_decodes_once(decodes, path):
    session = api.load(path)
    assert len(decodes) == 1
    assert session.slif.processes()


def test_load_inline_document_decodes_once(decodes, document):
    session = api.load(document)
    assert len(decodes) == 1
    assert session.slif.processes()


def test_payload_is_not_part_of_identity(path, document):
    from_path = FRONTENDS.resolve(path)
    inline = FRONTENDS.resolve(document)
    assert from_path.payload == inline.payload
    assert "payload" not in repr(from_path)
    assert from_path == frontends.ResolvedSpec(
        frontend=from_path.frontend,
        source=from_path.source,
        name=from_path.name,
    )


def test_build_without_payload_decodes_source(document):
    """A ResolvedSpec made by hand (no payload) still parses."""
    resolved = FRONTENDS.resolve(document)
    bare = frontends.ResolvedSpec(
        frontend=resolved.frontend, source=resolved.source, name=resolved.name
    )
    library = default_library()
    assert (
        FRONTENDS.parse(bare, library).stats()
        == FRONTENDS.parse(resolved, library).stats()
    )


def with_field(document, kind, field, value):
    """``document`` with ``field`` of its first ``kind`` object set."""
    data = json.loads(document)
    data[kind][0][field] = value
    return json.dumps(data)


def test_a_weight_map_that_is_no_object_is_a_slif_error(document):
    from repro.errors import SlifError

    spec = with_field(document, "behaviors", "ict", [1, 2])
    with pytest.raises(SlifError, match="weight maps objects"):
        api.estimate(spec)


def test_a_number_beyond_float_range_is_a_slif_error(document):
    from repro.errors import SlifError

    spec = with_field(document, "channels", "bits", 10**400)
    with pytest.raises(SlifError, match="int too large to convert to float"):
        api.estimate(spec)


def test_a_tag_that_is_no_string_is_a_slif_error(document):
    from repro.errors import SlifError

    spec = with_field(document, "channels", "tag", ["fork"])
    with pytest.raises(SlifError, match="tags must be strings"):
        api.load(spec)
    assert api.load(with_field(document, "channels", "tag", None)).slif
