"""Pluggable spec front ends: the registry behind every ``spec`` argument.

Historically :func:`repro.api.session.resolve_spec` hardcoded exactly
three input kinds (bundled benchmark name, VHDL source text, filesystem
path) in a fixed ``if`` chain, so a new specification format meant
editing the facade.  This module is the redesign: each input format is
a :class:`FrontEnd` object —

``name``
    Stable identifier (``benchmark``, ``vhdl``, ``synth``) used in
    diagnostics and :class:`ResolvedSpec.frontend`.
``sniff(spec)``
    Does this *inline* spec string belong to me?  (A bundled name, VHDL
    text, a ``slif-synth`` JSON document...)
``sniff_source(source)``
    Does this *file content* belong to me?  Applied after the registry
    has read a path, so one ``slif estimate path`` works for any
    registered format.
``parse(resolved, library)``
    Build the annotated functional access graph for a spec this front
    end resolved.

and the :class:`FrontEndRegistry` owns resolution order and
diagnostics: bundled names win, then inline-text sniffs, then paths —
and a *missing* path that clearly looks like one (``specs/typo.vhd``)
is reported as a missing file naming the registered front ends instead
of being handed to a lexer.

Resolution takes two steps.  :meth:`FrontEndRegistry.read` classifies
the argument and reads a file's raw bytes once, giving a
:class:`SpecInput`; :meth:`FrontEndRegistry.resolve` decodes and
dispatches it.  The server's graph cache compares the read input with
content it has seen to find a cached session, and resolves only when
none matches.

Everything above the registry (:func:`repro.api.session.load`, the CLI,
the server's graph cache) resolves specs through :data:`FRONTENDS`, so
registering a new front end makes it available everywhere at once::

    from repro.api.frontends import FRONTENDS, FrontEnd

    class GwtFrontEnd(FrontEnd):
        name = "gwt"
        ...

    FRONTENDS.register(GwtFrontEnd())

Resolution of the three built-in input forms is byte-identical to the
old hardcoded chain (covered by ``tests/api/test_frontends.py``).
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import SlifError

#: Formats understood by :class:`SynthFrontEnd` (the compact JSON spec
#: documents ``slif gen`` emits).
SYNTH_FORMAT = "slif-synth"
SYNTH_VERSION = 1


@dataclass(frozen=True)
class ResolvedSpec:
    """One spec argument resolved to its canonical form.

    ``source`` is the *canonical* source text — the exact string
    :func:`repro.api.session.session_key` hashes.  For text formats it
    is the source as given (so existing keys are unchanged); for
    structured formats it is the canonical JSON encoding of the
    payload, which makes generated specs content-addressed regardless
    of whitespace, key order, or which process serialized them.

    ``payload`` is the decoded document of a structured format, kept so
    :meth:`FrontEnd.parse` does not decode ``source`` again; it is left
    out of comparison and ``repr``.
    """

    frontend: str
    source: str
    name: str
    profile: Optional[object] = None
    payload: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SpecInput:
    """One spec argument after :meth:`FrontEndRegistry.read`, not decoded.

    ``kind`` is ``"name"`` for an exact name a front end claims ahead of
    the filesystem (a bundled benchmark), ``"file"`` for an existing
    file and ``"text"`` for inline spec text.  ``spec`` is the argument
    as given.  For a file, ``data`` holds its raw bytes and ``stem`` its
    stem, the name a document without one gets.
    """

    kind: str
    spec: str
    data: bytes = field(default=b"", repr=False)
    stem: str = ""


class FrontEnd:
    """Base class: one registered specification input format."""

    #: stable identifier used in diagnostics and ResolvedSpec.frontend
    name: str = "?"
    #: path suffixes that mark a (possibly missing) file as this front
    #: end's business, for the registry's missing-file diagnostics
    suffixes: Tuple[str, ...] = ()
    #: one-line description of accepted inputs, for error messages
    describes: str = ""
    #: sniffed before the filesystem is consulted — for front ends whose
    #: inline form is an exact name that must beat a same-named file
    sniff_before_path: bool = False

    def sniff(self, spec: str) -> bool:
        """True when the inline spec string belongs to this front end."""
        return False

    def sniff_source(self, source: str) -> bool:
        """True when file *content* belongs to this front end."""
        return False

    def resolve(self, spec: str) -> ResolvedSpec:
        """Resolve an inline spec this front end :meth:`sniff`-ed."""
        raise NotImplementedError

    def resolve_source(self, source: str, name: str) -> ResolvedSpec:
        """Resolve file content this front end :meth:`sniff_source`-ed."""
        return ResolvedSpec(frontend=self.name, source=source, name=name)

    def parse(self, resolved: ResolvedSpec, library):
        """Build the annotated functional access graph (no components)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrontEnd {self.name}>"


class VhdlFrontEnd(FrontEnd):
    """The paper's front end proper: VHDL-subset source text (§5)."""

    name = "vhdl"
    suffixes = (".vhd", ".vhdl")
    describes = "VHDL-subset source text, or a path to a .vhd/.vhdl file"

    def sniff(self, spec: str) -> bool:
        # the historical rule: anything containing `entity` and a
        # newline is VHDL source (a bare path never has a newline, and
        # path-looking inputs are intercepted by the registry first)
        return "entity" in spec.lower() and "\n" in spec

    def sniff_source(self, source: str) -> bool:
        # the fallback format for file contents, preserving the old
        # behavior where any existing file was handed to the lexer
        return True

    def resolve(self, spec: str) -> ResolvedSpec:
        return ResolvedSpec(frontend=self.name, source=spec, name="user")

    def parse(self, resolved: ResolvedSpec, library):
        from repro.obs import span
        from repro.synth.annotate import annotate_slif
        from repro.vhdl.slif_builder import build_slif_from_source

        slif = build_slif_from_source(
            resolved.source, name=resolved.name, profile=resolved.profile
        )
        with span("synth.annotate"):
            annotate_slif(slif, library)
        return slif


class BenchmarkFrontEnd(VhdlFrontEnd):
    """The four bundled Figure 4 benchmarks, resolved by name."""

    name = "benchmark"
    suffixes = ()
    sniff_before_path = True

    @property
    def describes(self) -> str:  # type: ignore[override]
        from repro.specs import SPEC_NAMES

        return f"a bundled benchmark name ({SPEC_NAMES})"

    def sniff(self, spec: str) -> bool:
        from repro.specs import SPEC_NAMES

        return spec in SPEC_NAMES

    def sniff_source(self, source: str) -> bool:
        return False

    def resolve(self, spec: str) -> ResolvedSpec:
        from repro.specs import spec_profile, spec_source

        return ResolvedSpec(
            frontend=self.name,
            source=spec_source(spec),
            name=spec,
            profile=spec_profile(spec),
        )


class SynthFrontEnd(FrontEnd):
    """``slif-synth`` JSON documents (the ``slif gen`` output format).

    A synthetic spec carries the access graph *with* its estimation
    annotations (per-technology ict/size weights, accfreq/bits/tags),
    so parsing skips the VHDL pipeline and the preprocessing pass
    entirely — the paper explicitly allows hand-specified weights, and
    a generated spec is exactly that.
    """

    name = "synth"
    suffixes = (".json",)
    describes = (
        f'a {SYNTH_FORMAT!r} JSON document (see `slif gen`), '
        "or a path to a .json file holding one"
    )

    def sniff(self, spec: str) -> bool:
        stripped = spec.lstrip()
        return stripped.startswith("{") and f'"{SYNTH_FORMAT}"' in spec

    def sniff_source(self, source: str) -> bool:
        return self.sniff(source)

    def _payload(self, text: str) -> dict:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SlifError(f"not a valid {SYNTH_FORMAT} JSON document: {exc}")
        if not isinstance(data, dict) or data.get("format") != SYNTH_FORMAT:
            raise SlifError(
                f"not a {SYNTH_FORMAT} document "
                f"(format={data.get('format')!r})"
                if isinstance(data, dict)
                else f"a {SYNTH_FORMAT} document must be a JSON object"
            )
        if data.get("version") != SYNTH_VERSION:
            raise SlifError(
                f"unsupported {SYNTH_FORMAT} version {data.get('version')!r} "
                f"(this build reads version {SYNTH_VERSION})"
            )
        return data

    def resolve(self, spec: str) -> ResolvedSpec:
        return self._resolved(self._payload(spec), "synth")

    def resolve_source(self, source: str, name: str) -> ResolvedSpec:
        data = self._payload(source)
        # a document without a "name" key is named after its file
        return self._resolved(data, "synth" if "name" in data else name)

    def _resolved(self, data: dict, default_name: str) -> ResolvedSpec:
        from repro.api.types import canonical_json

        # canonical JSON, not the raw text: two serializations of the
        # same payload (pretty-printed file, compact inline body) get
        # the same content-addressed session key
        return ResolvedSpec(
            frontend=self.name,
            source=canonical_json(data),
            name=str(data.get("name") or default_name),
            payload=data,
        )

    def parse(self, resolved: ResolvedSpec, library):
        from repro.core.channels import AccessKind, Channel
        from repro.core.graph import Slif
        from repro.core.nodes import Behavior, Port, PortDirection, Variable
        from repro.obs import span

        data = resolved.payload or self._payload(resolved.source)
        with span("synth.parse", spec=resolved.name):
            slif = Slif(resolved.name)
            try:
                for b in data.get("behaviors", []):
                    slif.add_behavior(
                        Behavior(
                            b["name"],
                            is_process=bool(b.get("process", False)),
                            ict=b.get("ict", {}),
                            size=b.get("size", {}),
                            parameter_bits=int(b.get("parameter_bits", 0)),
                            source_ref=f"{SYNTH_FORMAT}:{b['name']}",
                        )
                    )
                for v in data.get("variables", []):
                    slif.add_variable(
                        Variable(
                            v["name"],
                            bits=int(v.get("bits", 32)),
                            elements=int(v.get("elements", 1)),
                            ict=v.get("ict", {}),
                            size=v.get("size", {}),
                            concurrent=bool(v.get("concurrent", False)),
                        )
                    )
                for p in data.get("ports", []):
                    slif.add_port(
                        Port(
                            p["name"],
                            PortDirection(p.get("direction", "in")),
                            int(p.get("bits", 32)),
                        )
                    )
                for c in data.get("channels", []):
                    slif.add_channel(
                        Channel(
                            f"{c['src']}->{c['dst']}",
                            c["src"],
                            c["dst"],
                            AccessKind(c.get("kind", "rw")),
                            accfreq=float(c.get("accfreq", 1.0)),
                            accmin=c.get("accmin"),
                            accmax=c.get("accmax"),
                            bits=int(c.get("bits", 0)),
                            tag=c.get("tag"),
                        )
                    )
            except (KeyError, TypeError, ValueError) as exc:
                raise SlifError(
                    f"malformed {SYNTH_FORMAT} document: {exc}"
                ) from exc
            if not slif.processes():
                raise SlifError(
                    f"{SYNTH_FORMAT} document {resolved.name!r} declares no "
                    "process behaviors; nothing would ever execute"
                )
        return slif


class FrontEndRegistry:
    """Ordered front ends plus the one spec-resolution rule.

    Resolution order (the registry owns it, not the front ends):

    1. exact names claimed ahead of the filesystem
       (:attr:`FrontEnd.sniff_before_path`: bundled benchmark names);
    2. an *existing* file path: content is read, decoded as
       :meth:`pathlib.Path.read_text` decodes it, and dispatched on
       :meth:`FrontEnd.sniff_source` (first match wins, VHDL is the
       fallback), with the file's stem as the spec name;
    3. a *missing* path that looks like one (has a path separator or a
       registered suffix) raises a missing-file :class:`SlifError`
       instead of falling through to a text front end — the historical
       failure mode where ``specs/entity_a.vhd`` typo'd was lexed as
       VHDL and died with a confusing parse error;
    4. inline sniffs, in registration order — ``slif-synth`` JSON,
       then VHDL source text;
    5. anything else raises a :class:`SlifError` listing every
       registered front end and what it accepts.

    ``generation`` counts registrations and removals, so a memo of
    resolutions can tell that the rule has changed.
    """

    def __init__(self) -> None:
        self._frontends: List[FrontEnd] = []
        self.generation = 0

    # -- registration --------------------------------------------------

    def register(self, frontend: FrontEnd, index: Optional[int] = None) -> None:
        """Add a front end (at ``index`` to override sniff priority)."""
        if any(fe.name == frontend.name for fe in self._frontends):
            raise SlifError(
                f"a front end named {frontend.name!r} is already registered"
            )
        if index is None:
            self._frontends.append(frontend)
        else:
            self._frontends.insert(index, frontend)
        self.generation += 1

    def unregister(self, name: str) -> FrontEnd:
        """Remove and return the front end called ``name``."""
        for i, fe in enumerate(self._frontends):
            if fe.name == name:
                self.generation += 1
                return self._frontends.pop(i)
        raise SlifError(f"no front end named {name!r} is registered")

    def get(self, name: str) -> FrontEnd:
        for fe in self._frontends:
            if fe.name == name:
                return fe
        raise SlifError(
            f"no front end named {name!r} is registered "
            f"(registered: {self.names()})"
        )

    def names(self) -> List[str]:
        return [fe.name for fe in self._frontends]

    # -- resolution ----------------------------------------------------

    def _suffixes(self) -> Tuple[str, ...]:
        out: Tuple[str, ...] = ()
        for fe in self._frontends:
            out += tuple(s for s in fe.suffixes if s not in out)
        return out

    def _looks_like_path(self, spec: str) -> bool:
        """A single-line string with a separator or a known suffix.

        Inline JSON documents (``{...``) are never paths, however many
        slashes their string values contain.
        """
        line = spec.strip()
        if not line or "\n" in line or line.startswith("{"):
            return False
        if os.sep in line or (os.altsep and os.altsep in line):
            return True
        return line.endswith(self._suffixes())

    def _describe(self) -> str:
        return "; ".join(f"{fe.name}: {fe.describes}" for fe in self._frontends)

    def read(self, spec: str) -> SpecInput:
        """Classify one spec argument, reading a file's bytes once.

        Decodes and parses nothing; past the type check, the only error
        is a missing file named by an argument that looks like a path.
        """
        if not isinstance(spec, str):
            raise SlifError(
                f"spec must be a string, got {type(spec).__name__}"
            )
        # exact-name front ends beat a same-named file in the cwd
        for fe in self._frontends:
            if fe.sniff_before_path and fe.sniff(spec):
                return SpecInput("name", spec)
        # a path never contains a newline; check paths (and path-looking
        # typos) before the inline-text sniffs so a missing file fails
        # as a missing file, not as unparseable source
        line = spec.strip()
        pathish = line and "\n" not in line and not line.startswith("{")
        if pathish and Path(line).is_file():
            path = Path(line)
            return SpecInput("file", spec, path.read_bytes(), path.stem)
        if self._looks_like_path(spec):
            raise SlifError(
                f"spec file {line!r} does not exist (it looks like a path: "
                f"create it, or pass one of the inline forms — "
                f"{self._describe()})"
            )
        return SpecInput("text", spec)

    def resolve(self, spec: Union[str, SpecInput]) -> ResolvedSpec:
        """Resolve a spec argument, or what :meth:`read` made of one."""
        read = spec if isinstance(spec, SpecInput) else self.read(spec)
        if read.kind == "file":
            source = _decode(read)
            for fe in self._frontends:
                if fe.sniff_source(source):
                    return fe.resolve_source(source, read.stem)
        for fe in self._frontends:
            if read.kind == "name" and not fe.sniff_before_path:
                continue
            if fe.sniff(read.spec):
                return fe.resolve(read.spec)
        raise SlifError(
            f"{read.spec!r} is neither a bundled benchmark, inline spec "
            f"source, nor an existing file; registered front ends — "
            f"{self._describe()}"
        )

    def parse(self, resolved: ResolvedSpec, library):
        """Build the annotated functional graph for a resolved spec."""
        return self.get(resolved.frontend).parse(resolved, library)


def _decode(read: SpecInput) -> str:
    """A file's text, decoded exactly as :meth:`pathlib.Path.read_text` does."""
    try:
        return io.TextIOWrapper(io.BytesIO(read.data)).read()
    except UnicodeDecodeError as exc:
        raise SlifError(
            f"spec file {read.spec.strip()!r} is not readable text: {exc}"
        ) from exc


def default_registry() -> FrontEndRegistry:
    """A fresh registry holding the three built-in front ends."""
    registry = FrontEndRegistry()
    registry.register(BenchmarkFrontEnd())
    registry.register(SynthFrontEnd())
    registry.register(VhdlFrontEnd())
    return registry


#: The process-wide registry every entry point resolves through.
FRONTENDS = default_registry()
