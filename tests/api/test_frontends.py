"""The front-end registry: dispatch, back-compat, and diagnostics."""

import json

import pytest

from repro import api
from repro.api.frontends import (
    FRONTENDS,
    FrontEnd,
    FrontEndRegistry,
    ResolvedSpec,
    default_registry,
)
from repro.errors import SlifError
from repro.specs import SPEC_NAMES, spec_source

VHDL_TEXT = """entity T is port ( a : in integer ); end;
Main: process
    variable v : integer range 0 to 255;
begin
    v := a + 1;
    wait;
end process;
"""


def synth_text(**over):
    from repro.synth.gen import GenConfig, generate_text

    return generate_text(GenConfig(behaviors=20, seed=4, **over))


class TestDispatch:
    def test_bundled_name_resolves_to_benchmark_frontend(self):
        for name in SPEC_NAMES:
            resolved = FRONTENDS.resolve(name)
            assert resolved.frontend == "benchmark"
            assert resolved.name == name
            assert resolved.profile is not None

    def test_vhdl_text_resolves_to_vhdl_frontend(self):
        resolved = FRONTENDS.resolve(VHDL_TEXT)
        assert resolved.frontend == "vhdl"
        assert resolved.name == "user"
        assert resolved.source == VHDL_TEXT

    def test_synth_json_resolves_to_synth_frontend(self):
        resolved = FRONTENDS.resolve(synth_text())
        assert resolved.frontend == "synth"
        assert resolved.name == "synth-4-20"

    def test_vhdl_path_resolves_by_content(self, tmp_path):
        path = tmp_path / "tiny.vhd"
        path.write_text(VHDL_TEXT)
        resolved = FRONTENDS.resolve(str(path))
        assert resolved.frontend == "vhdl"
        assert resolved.name == "tiny"
        assert resolved.source == VHDL_TEXT

    def test_synth_path_resolves_by_content(self, tmp_path):
        path = tmp_path / "load.json"
        path.write_text(synth_text())
        resolved = FRONTENDS.resolve(str(path))
        assert resolved.frontend == "synth"

    def test_bundled_name_beats_same_named_file(self, tmp_path, monkeypatch):
        (tmp_path / "vol").write_text("not vhdl at all")
        monkeypatch.chdir(tmp_path)
        assert FRONTENDS.resolve("vol").frontend == "benchmark"


def resolved(spec):
    """``(source, name, profile)`` as the registry resolves ``spec``."""
    resolved = FRONTENDS.resolve(spec)
    return resolved.source, resolved.name, resolved.profile


class TestBackCompat:
    """Resolved specs must be byte-identical to the old chain."""

    def test_bundled_names(self):
        for name in SPEC_NAMES:
            source, resolved_name, profile = resolved(name)
            assert source == spec_source(name)
            assert resolved_name == name
            assert profile is not None

    def test_inline_vhdl(self):
        source, name, profile = resolved(VHDL_TEXT)
        assert source == VHDL_TEXT
        assert name == "user"
        assert profile is None

    def test_path(self, tmp_path):
        path = tmp_path / "box.vhd"
        path.write_text(VHDL_TEXT)
        source, name, profile = resolved(str(path))
        assert source == VHDL_TEXT
        assert name == "box"
        assert profile is None

    def test_session_keys_unchanged_for_existing_forms(self, tmp_path):
        """The key formula over (source, name, arch) is untouched, so
        cached sessions keyed before the redesign still match."""
        import hashlib

        for spec in list(SPEC_NAMES) + [VHDL_TEXT]:
            source, name, _ = resolved(spec)
            blob = "\x00".join([source, name, "CPU", "HW", "16"])
            expected = hashlib.sha256(blob.encode()).hexdigest()[:24]
            assert api.session_key(spec) == expected

    def test_generated_spec_key_and_job_id_are_pinned(self):
        """A synth document is keyed by hashing its canonical encoding,
        and every durable job id hashes the key, so both literals were
        computed before the encoder's flags last changed."""
        from repro.serve.store import job_id_for
        from repro.synth.gen import GenConfig, generate_text

        key = api.session_key(generate_text(GenConfig(behaviors=50, seed=1)))
        assert key == "7f41fc9cb3b7a97c1c2f73aa"
        request = {"algorithm": "greedy", "seed": 1}
        assert job_id_for("default", "partition", key, request) == "a14e334b7889730a"

    def test_canonical_json_is_the_default_encoding(self):
        """Skipping the circular-reference check changes no byte, on a
        decoded document and on an estimate report's ``to_dict()``."""
        from repro.api.types import canonical_json
        from repro.synth.gen import GenConfig, generate_text

        text = generate_text(GenConfig(behaviors=50, seed=1))
        report = api.estimate(text).to_dict()
        for payload in (json.loads(text), report):
            assert canonical_json(payload) == json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )

    def test_a_file_named_like_a_benchmark_gets_its_own_key(self, tmp_path):
        """``vol.vhd`` holding ``vol``'s source builds without its branch
        profile, so it must not share ``vol``'s session."""
        for name in SPEC_NAMES:
            path = tmp_path / f"{name}.vhd"
            path.write_text(spec_source(name))
            assert resolved(str(path))[:2] == resolved(name)[:2]
            assert api.session_key(str(path)) != api.session_key(name)

    def test_load_still_works_for_every_form(self, tmp_path):
        path = tmp_path / "t.vhd"
        path.write_text(VHDL_TEXT)
        for spec in ("vol", VHDL_TEXT, str(path), synth_text()):
            session = api.load(spec)
            assert session.partition.is_complete()


class TestDiagnostics:
    def test_unknown_spec_lists_frontends(self):
        with pytest.raises(SlifError) as exc:
            FRONTENDS.resolve("definitely-not-a-spec")
        message = str(exc.value)
        assert "neither a bundled benchmark" in message
        for name in ("benchmark", "vhdl", "synth"):
            assert name in message

    def test_missing_path_with_entity_is_a_missing_file(self):
        """The historical bug: a typo'd path containing 'entity' was
        handed to the VHDL lexer and died with a parse error.  The
        registry reports it as the missing file it is."""
        with pytest.raises(SlifError, match="does not exist"):
            FRONTENDS.resolve("specs/entity_a.vhd")

    def test_missing_path_with_separator_is_a_missing_file(self):
        with pytest.raises(SlifError, match="does not exist"):
            FRONTENDS.resolve("no/such/dir/spec.json")

    def test_malformed_synth_document_is_a_slif_error(self):
        with pytest.raises(SlifError, match="slif-synth"):
            FRONTENDS.resolve('{"format": "slif-synth", "version": 99}')

    def test_synth_document_without_processes_rejected(self):
        doc = json.dumps({
            "format": "slif-synth",
            "version": 1,
            "name": "empty",
            "behaviors": [{"name": "b0", "process": False}],
            "channels": [],
        })
        with pytest.raises(SlifError, match="no.*process"):
            api.load(doc)


class TestRegistryApi:
    def test_register_unregister_roundtrip(self):
        registry = default_registry()

        class Toy(FrontEnd):
            name = "toy"
            describes = "the literal string 'toy:...'"

            def sniff(self, spec):
                return spec.startswith("toy:")

            def resolve(self, spec):
                return ResolvedSpec(frontend="toy", source=spec, name="toy")

        registry.register(Toy())
        assert registry.resolve("toy:x").frontend == "toy"
        assert "toy" in registry.names()
        registry.unregister("toy")
        with pytest.raises(SlifError):
            registry.resolve("toy:x")

    def test_duplicate_registration_rejected(self):
        registry = default_registry()
        with pytest.raises(SlifError, match="already registered"):
            registry.register(registry.get("vhdl"))

    def test_unknown_frontend_lookup(self):
        with pytest.raises(SlifError, match="no front end named"):
            FrontEndRegistry().get("nope")

    def test_error_message_names_new_frontends(self):
        registry = default_registry()

        class Gwt(FrontEnd):
            name = "gwt"
            describes = "given/when/then transition specs"

        registry.register(Gwt())
        with pytest.raises(SlifError) as exc:
            registry.resolve("definitely-not-a-spec")
        assert "given/when/then" in str(exc.value)

    def test_synth_content_addressing_ignores_formatting(self):
        text = synth_text()
        payload = json.loads(text)
        pretty = json.dumps(payload, indent=4)
        a = FRONTENDS.resolve(text)
        b = FRONTENDS.resolve(pretty)
        assert a.source == b.source
