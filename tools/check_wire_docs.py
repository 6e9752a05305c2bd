#!/usr/bin/env python3
"""Wire-format documentation completeness checker.

Every frame magic declared in src/ats (``... kFooMagic = 0x...;``) and
every checkpoint ``SchemeKind`` enumerator must have normative coverage
in docs/WIRE_FORMAT.md:

  * the magic's 4-char ASCII name must appear in a ``##`` section
    heading (shared headings like "THT2 / LCS2 / GDS2" count),
  * the magic's hex constant must appear in the document (the family
    table or the section's offset table),
  * each SchemeKind value must have a ``| <kind> |`` row in the CKP1
    kind table,
  * the documented kBadKind bound must match [kMinSchemeKind,
    kMaxSchemeKind] from checkpoint.h,
  * the golden corpus (tests/golden/v<N>/<TAG>.bin) must hold a file for
    every magic in every corpus version, headed by that magic and N, and
    the newest corpus version must be the "current version" the family
    table documents,
  * every CKP1*.bin and ENV1*.bin corpus file must parse by the offset
    table of its section: header magic and N, a kind the doc lists (the
    CKP1 kind table, the ENV1 "kind u32" line), a declared payload
    length that matches the file, and a payload that is the documented
    frame of version N (the kind table's wrapped frame; any frame magic
    for ENV1 data, nothing for an ack); and every scheme kind and every
    envelope kind must have such a file in every corpus version.

Exits non-zero listing every gap, so the docs CI job fails when a new
frame lands without its spec.  Run from anywhere:

    python3 tools/check_wire_docs.py
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "ats"
DOC = REPO / "docs" / "WIRE_FORMAT.md"
CHECKPOINT_H = SRC / "persist" / "checkpoint.h"
GOLDEN = REPO / "tests" / "golden"

# Every magic declaration names its ASCII tag in a trailing comment
# (the tag cannot be decoded from the literal alone: byte order in the
# hex spelling is not uniform across families, only the u32 compare
# matters on the wire).  The checker reads the tag from that comment and
# treats a missing comment as an error in its own right.
MAGIC_RE = re.compile(
    r"\bk\w*Magic\s*=\s*(0x[0-9a-fA-F]{8})u?\s*;"
    r"(?:\s*//\s*\"(\w{4})\")?")
ENUM_RE = re.compile(r"enum class SchemeKind[^{]*\{(.*?)\};", re.DOTALL)
ENUMERATOR_RE = re.compile(r"\bk(\w+)\s*=\s*(\d+)")
BOUND_RE = re.compile(r"\bk(Min|Max)SchemeKind\s*=\s*(\d+)\s*;")
FAMILY_ROW_RE = re.compile(r"^\|[^|]*\|\s*`0x[0-9a-fA-F]{8}`\s*\|\s*`(\w{4})`"
                           r"\s*\|\s*(\d+)\s*\|", re.MULTILINE)
# A row of a section's offset table: "offset  size  field ...".
FIELD_RE = re.compile(r"^\s*(\d+)\s+(\d+|var)\s+(\w+)", re.MULTILINE)
# A row of the CKP1 kind table: "| kind | `Family` | WRAPPED ...".
KIND_ROW_RE = re.compile(r"^\|\s*(\d+)\s*\|\s*`[^`]+`\s*\|\s*(\w{4})\b",
                         re.MULTILINE)
ENV_KINDS_RE = re.compile(r"\bkind u32\s*\(([^)]*)\)")


def collect_magics():
    magics = {}    # ascii tag -> (hex literal, declaring file)
    unnamed = []   # (hex literal, declaring file) with no tag comment
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        for match in MAGIC_RE.finditer(path.read_text()):
            hex_literal = match.group(1).lower()
            name = match.group(2)
            origin = path.relative_to(REPO)
            if name is None:
                unnamed.append((hex_literal, origin))
            else:
                magics.setdefault(name, (hex_literal, origin))
    return magics, unnamed


def collect_scheme_kinds():
    text = CHECKPOINT_H.read_text()
    enum_body = ENUM_RE.search(text)
    if enum_body is None:
        sys.exit(f"error: no SchemeKind enum in {CHECKPOINT_H}")
    kinds = {int(v): n for n, v in ENUMERATOR_RE.findall(enum_body.group(1))}
    bounds = {m.group(1): int(m.group(2)) for m in BOUND_RE.finditer(text)}
    return kinds, bounds.get("Min"), bounds.get("Max")


def corpus_versions():
    return sorted(int(d.name[1:]) for d in GOLDEN.glob("v*")
                  if d.is_dir() and d.name[1:].isdigit())


def check_corpus(magics, doc, versions):
    """Problems between the golden corpus, the magics and the doc."""
    problems = []
    if not versions:
        return [f"no golden corpus under {GOLDEN.relative_to(REPO)}"]
    for version in versions:
        for name, (hex_literal, _) in sorted(magics.items()):
            path = GOLDEN / f"v{version}" / f"{name}.bin"
            if not path.is_file():
                problems.append(f"{path.relative_to(REPO)} is missing")
                continue
            head = path.read_bytes()[:8]
            want = (int(hex_literal, 16).to_bytes(4, "little") +
                    version.to_bytes(4, "little"))
            if head != want:
                problems.append(
                    f"{path.relative_to(REPO)}: header is not "
                    f"{name} version {version}")
    for name, documented in FAMILY_ROW_RE.findall(doc):
        if int(documented) != versions[-1]:
            problems.append(
                f"{name}: the family table says version {documented}, the "
                f"newest golden corpus is v{versions[-1]}")
    return problems


def section(doc, tag):
    """The text of the "## TAG ..." section, up to the next heading."""
    match = re.search(rf"^## {tag}\b.*?(?=^## |\Z)", doc,
                      re.MULTILINE | re.DOTALL)
    return match.group(0) if match else ""


def layout(text):
    """field name -> (offset, size or None) from a section's offset table."""
    return {name: (int(off), None if size == "var" else int(size))
            for off, size, name in FIELD_RE.findall(text)}


def u(data, field):
    offset, size = field
    return int.from_bytes(data[offset:offset + size], "little")


def check_wrapper_files(magics, scheme_kinds, doc, versions):
    """Problems between the CKP1/ENV1 corpus files and their sections."""
    problems = []
    by_hex = {int(h, 16): name for name, (h, _) in magics.items()}
    ckp_text, env_text = section(doc, "CKP1"), section(doc, "ENV1")
    ckp, env = layout(ckp_text), layout(env_text)
    wanted = {"CKP1": ("magic", "version", "scheme_kind", "payload_len",
                       "payload"),
              "ENV1": ("magic", "version", "kind", "payload_len",
                       "payload")}
    for tag, fields in (("CKP1", ckp), ("ENV1", env)):
        missing = [f for f in wanted[tag] if f not in fields]
        if missing:
            return [f"{tag} offset table lacks {', '.join(missing)}"]
    wrapped = {int(k): m for k, m in KIND_ROW_RE.findall(ckp_text)}
    env_line = ENV_KINDS_RE.search(env_text)
    env_kinds = ({int(v): n for v, n in
                  re.findall(r"(\d+)\s*=\s*(\w+)", env_line.group(1))}
                 if env_line else {})
    if not wrapped:
        problems.append("no CKP1 kind table rows found")
    if not env_kinds:
        problems.append("no '(0 = data, ...)' list on the ENV1 kind line")

    def frame_problem(payload, version, want):
        if len(payload) < 8:
            return "payload is not a frame"
        name = by_hex.get(int.from_bytes(payload[:4], "little"))
        if name is None or (want is not None and name != want):
            return f"payload is {name or 'no known frame'}, not {want}"
        if int.from_bytes(payload[4:8], "little") != version:
            return f"payload {name} is not version {version}"
        return None

    for version in versions:
        root = GOLDEN / f"v{version}"
        for tag, fields, kinds, required in (
                ("CKP1", ckp, wrapped, scheme_kinds),
                ("ENV1", env, env_kinds, env_kinds)):
            kind_field = fields["scheme_kind" if tag == "CKP1" else "kind"]
            covered = set()
            for path in sorted(root.glob(f"{tag}*.bin")):
                rel = path.relative_to(REPO)
                data = path.read_bytes()
                header = fields["payload"][0]
                if len(data) < header + 4:
                    problems.append(f"{rel}: shorter than the {tag} header")
                    continue
                if (u(data, fields["magic"]) != int(magics[tag][0], 16) or
                        u(data, fields["version"]) != version):
                    problems.append(f"{rel}: header is not {tag} version "
                                    f"{version}")
                kind = u(data, kind_field)
                covered.add(kind)
                length = u(data, fields["payload_len"])
                if len(data) != header + length + 4:
                    problems.append(f"{rel}: payload_len {length} does not "
                                    f"match the file size {len(data)}")
                    continue
                payload = data[header:header + length]
                if kind not in kinds:
                    problems.append(f"{rel}: kind {kind} is not documented")
                elif tag == "CKP1":
                    why = frame_problem(payload, version, kinds[kind])
                    if why:
                        problems.append(f"{rel}: kind {kind}: {why}")
                elif kinds[kind] == "ack":
                    if payload:
                        problems.append(f"{rel}: an ack carries a payload")
                else:
                    why = frame_problem(payload, version, None)
                    if why:
                        problems.append(f"{rel}: {why}")
            for kind in sorted(set(required) - covered):
                problems.append(f"{root.relative_to(REPO)}: no {tag} file "
                                f"of kind {kind} ({required[kind]})")
    return problems


def main():
    doc = DOC.read_text()
    headings = " ".join(
        line for line in doc.splitlines() if line.startswith("##")
    )
    problems = []

    magics, unnamed = collect_magics()
    if not magics:
        problems.append("scanner found no frame magics under src/ats "
                        "(pattern drift? fix MAGIC_RE)")
    for hex_literal, origin in unnamed:
        problems.append(
            f"{origin}: magic {hex_literal} has no // \"XXXX\" tag comment "
            f"(the checker needs it to match the doc section)")
    for name, (hex_literal, origin) in sorted(magics.items()):
        if name not in headings:
            problems.append(
                f"{name} ({origin}): no '## ...{name}...' section heading "
                f"in {DOC.relative_to(REPO)}")
        if hex_literal not in doc.lower():
            problems.append(
                f"{name} ({origin}): magic {hex_literal} not documented "
                f"in {DOC.relative_to(REPO)}")

    kinds, lo, hi = collect_scheme_kinds()
    if not kinds:
        problems.append("scanner found no SchemeKind enumerators "
                        "(pattern drift? fix ENUMERATOR_RE)")
    for value, name in sorted(kinds.items()):
        if not re.search(rf"^\|\s*{value}\s*\|", doc, re.MULTILINE):
            problems.append(
                f"SchemeKind::k{name} = {value}: no '| {value} | ...' row "
                f"in the CKP1 kind table")
    if lo is not None and hi is not None:
        if f"[{lo}, {hi}]" not in doc:
            problems.append(
                f"documented kBadKind bound does not mention [{lo}, {hi}] "
                f"(checkpoint.h says kMin/kMaxSchemeKind = {lo}/{hi})")

    versions = corpus_versions()
    problems += check_corpus(magics, doc, versions)
    if "CKP1" in magics and "ENV1" in magics:
        problems += check_wrapper_files(magics, kinds, doc, versions)
    else:
        problems.append("no CKP1/ENV1 magic declarations found")

    if problems:
        print("check_wire_docs: WIRE_FORMAT.md is incomplete:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"check_wire_docs: {len(magics)} frame magics and "
          f"{len(kinds)} scheme kinds all documented, golden corpus "
          f"consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
