"""Bundled fixture programs with oracle-established safety labels.

Every expected label in the manifest was produced by the bounded
fixed-point oracle at the default input domain and is re-derived by the
acceptance suite; none is hand-entered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .encode import EncodingConfig, enc_n, encode
from .lang import Program, parse_and_check, replace


# A dataclass, unlike the package's other data classes: its users may copy
# an entry with ``dataclasses.replace``.
@dataclass(frozen=True)
class CorpusEntry:
    name: str
    file: str
    expected: str            # "safe" | "unsafe"
    memory_safe: bool        # eligible for the functional-safety variant
    invalid_access: bool     # performs an out-of-bounds read or write
    scope_var: str | None    # designated extra predicate argument, if any
    rw_tagged_visible: bool  # failure findable under rw+tagging at the
                             # default seed budget (trivially true when safe)
    note: str

    def load(self) -> Program:
        return parse_and_check(self.source())

    def source(self) -> str:
        return resources.files("heapinv.corpus_data").joinpath(self.file) \
            .read_text(encoding="utf-8")


def load_corpus() -> list[CorpusEntry]:
    raw = resources.files("heapinv.corpus_data").joinpath("manifest.json") \
        .read_text(encoding="utf-8")
    data = json.loads(raw)
    return [CorpusEntry(
        name=e["name"], file=e["file"], expected=e["expected"],
        memory_safe=e["memory_safe"], invalid_access=e["invalid_access"],
        scope_var=e.get("scope_var"),
        rw_tagged_visible=e.get("rw_tagged_visible", True),
        note=e.get("note", ""),
    ) for e in data["entries"]]


# The encoding variants of the acceptance matrix: name -> (encoding, the
# CorpusEntry flag an entry needs to be eligible, or None for every entry).
VARIANTS = {
    "n": (enc_n, None),
    "r": (EncodingConfig(base="r"), None),
    "rw": (EncodingConfig(base="rw"), None),
    "r_t": (EncodingConfig(base="r", tagging=True), None),
    "r_c": (EncodingConfig(base="r", caching=True), None),
    "rw_c": (EncodingConfig(base="rw", caching=True), None),
    "rw_ct": (EncodingConfig(base="rw", caching=True, tagging=True), None),
    "rw_t": (EncodingConfig(base="rw", tagging=True), "rw_tagged_visible"),
    "rwfun": (EncodingConfig(base="rwfun", assume_memsafe=True), "memory_safe"),
    "rwmem": (EncodingConfig(base="rwmem", strip_asserts=True), None),
    "r_scope": (EncodingConfig(base="r"), "scope_var"),
}


def encode_variant(entry: CorpusEntry, program: Program,
                   variant: str) -> Program | None:
    """The entry's parsed program under the named variant, or None when the
    entry is not eligible for it.  ``r_scope`` adds the entry's scope
    variable as an extra predicate argument."""
    encoding, flag = VARIANTS[variant]
    if flag is not None and not getattr(entry, flag):
        return None
    if not isinstance(encoding, EncodingConfig):
        return encoding(program)
    if flag == "scope_var":
        encoding = replace(encoding, scope_vars=(entry.scope_var,))
    return encode(program, encoding).program
