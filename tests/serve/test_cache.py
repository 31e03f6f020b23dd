"""Unit tests for the serving layer's LRU graph/session cache."""

import json
import sys
import threading

import pytest

from repro.serve.cache import GraphCache
from repro.synth.gen import GenConfig, generate_text

from _helpers import same_length_variant


def tiny_spec(tag: str) -> str:
    """A distinct, fast-to-parse VHDL spec per tag."""
    return (
        f"entity E{tag} is port ( a : in integer range 0 to 255 ); end;\n"
        "Main: process\n"
        "    variable v : integer range 0 to 255;\n"
        "begin\n"
        f"    v := a + {ord(tag) % 7};\n"
        "    wait;\n"
        "end process;\n"
    )


SPEC_A = tiny_spec("a")
SPEC_B = tiny_spec("b")
SPEC_C = tiny_spec("c")


class TestLookup:
    def test_miss_then_hit(self):
        cache = GraphCache(capacity=4)
        session, hit = cache.get(SPEC_A)
        assert not hit
        again, hit = cache.get(SPEC_A)
        assert hit
        assert again is session
        assert cache.stats() == {
            "capacity": 4, "size": 1, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_key_for_matches_session_key(self):
        from repro.api import session_key

        cache = GraphCache(capacity=4)
        assert cache.key_for(SPEC_A) == session_key(SPEC_A)
        session, _ = cache.get(SPEC_A)
        assert session.key == cache.key_for(SPEC_A)

    def test_distinct_specs_do_not_collide(self):
        cache = GraphCache(capacity=4)
        a, _ = cache.get(SPEC_A)
        b, _ = cache.get(SPEC_B)
        assert a is not b
        assert len(cache) == 2

    def test_bad_spec_propagates_and_leaves_cache_clean(self):
        from repro.errors import SlifError

        cache = GraphCache(capacity=4)
        with pytest.raises(SlifError):
            cache.get("no-such-benchmark")
        assert len(cache) == 0
        # the key is not wedged: a later good build works
        cache.get(SPEC_A)
        assert len(cache) == 1


class TestLRUEviction:
    def test_capacity_is_enforced_oldest_first(self):
        cache = GraphCache(capacity=2)
        cache.get(SPEC_A)
        cache.get(SPEC_B)
        cache.get(SPEC_C)  # evicts A, the least recently used
        assert cache.stats()["evictions"] == 1
        assert cache.keys() == [cache.key_for(SPEC_B), cache.key_for(SPEC_C)]
        _, hit = cache.get(SPEC_A)  # A is gone: rebuilt
        assert not hit

    def test_hit_refreshes_recency(self):
        cache = GraphCache(capacity=2)
        cache.get(SPEC_A)
        cache.get(SPEC_B)
        cache.get(SPEC_A)  # A becomes most recent
        cache.get(SPEC_C)  # so B is evicted, not A
        _, hit_a = cache.get(SPEC_A)
        assert hit_a
        assert cache.key_for(SPEC_B) not in cache.keys()

    def test_rebuild_after_eviction_gets_same_key(self):
        cache = GraphCache(capacity=1)
        first, _ = cache.get(SPEC_A)
        cache.get(SPEC_B)
        rebuilt, hit = cache.get(SPEC_A)
        assert not hit
        assert rebuilt is not first
        assert rebuilt.key == first.key


class TestDisabled:
    def test_capacity_zero_disables_caching(self):
        cache = GraphCache(capacity=0)
        a1, hit1 = cache.get(SPEC_A)
        a2, hit2 = cache.get(SPEC_A)
        assert not hit1 and not hit2
        assert a1 is not a2
        assert cache.stats()["misses"] == 2
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            GraphCache(capacity=-1)


class TestConcurrency:
    def test_cold_herd_builds_once(self):
        cache = GraphCache(capacity=4)
        sessions = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            session, _ = cache.get(SPEC_A)
            sessions.append(session)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sessions) == 8
        assert len({id(s) for s in sessions}) == 1  # one build, shared
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 7


def gen_document(seed: int, named: bool = True) -> str:
    """A small ``slif gen`` document, with or without its name key."""
    text = generate_text(GenConfig(behaviors=12, seed=seed))
    if named:
        return text
    data = json.loads(text)
    del data["name"]
    return json.dumps(data)


@pytest.fixture()
def resolves(monkeypatch):
    """Count every resolution the process-wide registry performs."""
    from repro.api.frontends import FRONTENDS

    calls = []
    original = FRONTENDS.resolve

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(FRONTENDS, "resolve", counting)
    return calls


class TestContentAddressing:
    def test_cold_miss_resolves_once_and_warm_lookup_never(
        self, tmp_path, resolves
    ):
        path = tmp_path / "gen.json"
        path.write_text(gen_document(1))
        cache = GraphCache(capacity=4)
        session, hit = cache.get(str(path))
        assert not hit
        assert len(resolves) == 1
        again, hit = cache.get(str(path))
        assert hit and again is session
        assert len(resolves) == 1

    def test_rewritten_file_maps_to_its_new_content(self, tmp_path):
        from repro.api import session_key

        path = tmp_path / "gen.json"
        path.write_text(gen_document(1))
        cache = GraphCache(capacity=4)
        first, _ = cache.get(str(path))
        path.write_text(gen_document(2))
        second, hit = cache.get(str(path))
        assert not hit
        assert second.key == session_key(str(path)) != first.key
        # the old content, written back, still finds its own session
        path.write_text(gen_document(1))
        assert cache.get(str(path)) == (first, True)

    def test_same_bytes_and_stem_under_two_paths_share_a_session(
        self, tmp_path, resolves
    ):
        paths = [tmp_path / d / "spec.json" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            path.write_text(gen_document(3))
        cache = GraphCache(capacity=4)
        first, _ = cache.get(str(paths[0]))
        second, hit = cache.get(str(paths[1]))
        assert hit and second is first
        assert len(resolves) == 1  # the alias matched: nothing resolved

    def test_different_stems_without_a_name_keep_todays_keys(self, tmp_path):
        from repro.api import session_key

        paths = [tmp_path / "one.json", tmp_path / "two.json"]
        for path in paths:
            path.write_text(gen_document(3, named=False))
        cache = GraphCache(capacity=4)
        one, _ = cache.get(str(paths[0]))
        two, hit = cache.get(str(paths[1]))
        assert not hit
        assert [one.key, two.key] == [session_key(str(p)) for p in paths]
        assert one.key != two.key
        assert (one.spec_name, two.spec_name) == ("one", "two")

    def test_register_and_unregister_invalidate_aliases(self, tmp_path):
        from repro.api.frontends import FRONTENDS, SynthFrontEnd

        class Renaming(SynthFrontEnd):
            name = "renaming"

            def resolve_source(self, source, name):
                resolved = super().resolve_source(source, name)
                return type(resolved)(
                    frontend=self.name, source=resolved.source,
                    name="renamed", payload=resolved.payload,
                )

        path = tmp_path / "gen.json"
        path.write_text(gen_document(4))
        cache = GraphCache(capacity=4)
        original, _ = cache.get(str(path))
        FRONTENDS.register(Renaming(), index=0)
        try:
            renamed, hit = cache.get(str(path))
            assert not hit
            assert renamed.spec_name == "renamed"
        finally:
            FRONTENDS.unregister("renaming")
        again, hit = cache.get(str(path))
        assert again is original and hit

    def test_capacity_one_keeps_aliases_bounded(self, tmp_path):
        cache = GraphCache(capacity=1)
        path = tmp_path / "gen.json"
        for seed in range(5):
            path.write_text(gen_document(seed))
            cache.get(str(path))
            cache.get(SPEC_A)
            # an evicted session's aliases went with it
            assert len(cache._aliases) == 1
            assert set(cache._aliases.values()) == set(cache.keys())
        assert cache.stats()["evictions"] == 9

    def test_aliases_of_one_session_are_bounded(self):
        cache = GraphCache(capacity=1)
        # differently spaced VHDL texts are different content: each is
        # its own session, so use one synth document in many spacings
        document = gen_document(5)
        for pad in range(3 * GraphCache.ALIASES_PER_SESSION):
            session, _ = cache.get(" " * pad + document)
        assert len(cache) == 1
        assert len(cache._aliases) == GraphCache.ALIASES_PER_SESSION
        assert set(cache._aliases.values()) == {session.key}

    def test_lookup_span_says_whether_the_alias_hit(self):
        from repro import obs

        cache = GraphCache(capacity=4)
        obs.reset()
        obs.enable()
        try:
            cache.get(SPEC_A)
            cache.get(SPEC_A)
            spans = [s for s in obs.TRACER.spans() if s.name == "serve.resolve"]
        finally:
            obs.disable()
            obs.reset()
        assert [s.attributes["alias_hit"] for s in spans] == [False, True]


def assert_alias_index_consistent(cache: GraphCache) -> None:
    """Every alias is indexed under its shape, and nothing else is."""
    indexed = [a for same in cache._by_length.values() for a in same]
    assert sorted(map(id, indexed)) == sorted(map(id, cache._aliases))
    for shape, same in cache._by_length.items():
        assert same and all(a[0] == shape for a in same)
        assert all(shape[3] == len(a[1]) for a in same)


class TestExactContentAliases:
    def test_same_stem_and_length_with_other_bytes_is_its_own_session(
        self, tmp_path
    ):
        from repro.api import session_key

        document = gen_document(6)
        variant = same_length_variant(document)
        assert len(variant) == len(document) and variant != document
        paths = [tmp_path / d / "spec.json" for d in ("a", "b")]
        for path, text in zip(paths, (document, variant)):
            path.parent.mkdir()
            path.write_text(text)
        cache = GraphCache(capacity=4)
        first, _ = cache.get(str(paths[0]))
        second, hit = cache.get(str(paths[1]))
        assert not hit and second is not first
        assert [first.key, second.key] == [session_key(str(p)) for p in paths]
        # both stay found by their own content
        assert cache.get(str(paths[0])) == (first, True)
        assert cache.get(str(paths[1])) == (second, True)
        assert len(cache._by_length) == 1  # one shape, two contents
        assert_alias_index_consistent(cache)

    def test_bundled_names_of_one_length_hit_their_own_sessions(self):
        assert len("fuzzy") == len("ether")
        cache = GraphCache(capacity=4)
        fuzzy, _ = cache.get("fuzzy")
        ether, _ = cache.get("ether")
        assert fuzzy is not ether
        assert (fuzzy.spec_name, ether.spec_name) == ("fuzzy", "ether")
        for _ in range(2):
            assert cache.get("fuzzy") == (fuzzy, True)
            assert cache.get("ether") == (ether, True)
        assert cache.stats()["misses"] == 2

    def test_same_length_rewrite_in_place_gets_the_new_content(
        self, tmp_path
    ):
        from repro.api import session_key

        path = tmp_path / "gen.json"
        document = gen_document(7)
        path.write_text(document)
        cache = GraphCache(capacity=4)
        first, _ = cache.get(str(path))
        path.write_text(same_length_variant(document))
        second, hit = cache.get(str(path))
        assert not hit
        assert second.key == session_key(str(path)) != first.key
        path.write_text(document)
        assert cache.get(str(path)) == (first, True)

    def test_eviction_empties_the_aliases_and_their_index(self):
        cache = GraphCache(capacity=1)
        document = gen_document(8)
        cache.get(document)
        cache.get(" " + document)  # a second alias of the same session
        assert len(cache) == 1 and len(cache._aliases) == 2
        cache.get(SPEC_B)  # evicts the document's session
        assert list(cache._aliases.values()) == cache.keys()
        assert [a[1] for a in cache._aliases] == [SPEC_B]
        assert list(cache._by_length) == [next(iter(cache._aliases))[0]]
        assert_alias_index_consistent(cache)

    def test_clear_empties_the_aliases_and_their_index(self):
        cache = GraphCache(capacity=4)
        cache.get(SPEC_A)
        cache.get("fuzzy")
        cache.clear()
        assert not cache._aliases and not cache._by_length
        assert len(cache) == 0
        assert cache.get(SPEC_A)[1] is False

    def test_generation_bump_empties_the_aliases_and_their_index(self):
        from repro.api.frontends import FRONTENDS, FrontEnd

        class Inert(FrontEnd):
            name = "inert"

        cache = GraphCache(capacity=4)
        a, _ = cache.get(SPEC_A)
        cache.get(SPEC_B)
        FRONTENDS.register(Inert())
        try:
            again, hit = cache.get(SPEC_A)
            # the session is still cached under its key; only the
            # aliases from before the bump are gone
            assert again is a and hit
            assert [alias[1] for alias in cache._aliases] == [SPEC_A]
            assert all(
                shape[0] == FRONTENDS.generation for shape in cache._by_length
            )
            assert_alias_index_consistent(cache)
        finally:
            FRONTENDS.unregister("inert")
        cache.get(SPEC_B)
        assert [alias[1] for alias in cache._aliases] == [SPEC_B]
        assert_alias_index_consistent(cache)


class TestAliasStress:
    def test_racing_lookups_keep_every_alias_on_its_own_content(
        self, tmp_path
    ):
        """More threads than cores race four contents of two shapes
        through a cache that holds two sessions, so lookups, builds and
        evictions interleave."""
        from repro.api import session_key

        specs = [SPEC_A, SPEC_B]  # inline texts of one length
        for folder, tag in (("c", "c"), ("d", "d")):
            path = tmp_path / folder / "spec.vhd"  # one stem and length
            path.parent.mkdir()
            path.write_text(tiny_spec(tag))
            specs.append(str(path))
        expected = {spec: session_key(spec) for spec in specs}
        assert len(set(expected.values())) == len(specs)
        cache = GraphCache(capacity=2)
        wrong = []

        def worker(offset):
            for i in range(40):
                spec = specs[(offset + i * (offset + 1)) % len(specs)]
                session, _ = cache.get(spec)
                if session.key != expected[spec]:
                    wrong.append((spec, session.key))

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert_alias_index_consistent(cache)
        assert set(cache._aliases.values()) <= set(cache.keys())
        assert len(cache._aliases) <= GraphCache.ALIASES_PER_SESSION * 2
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 6 * 40
