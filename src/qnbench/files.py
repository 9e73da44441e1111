"""Input documents for the two engines.

Group inclusion documents (JSON, one object per inclusion)::

    {
      "family": "free" | "finite_table" | "fp" | "shift_extension"
                | "direct_product",
      "generators": ["a", "b"],            # free / fp generator names
      "relators": ["r r", "r a r a"],      # fp only
      "rewriting_rules": [["r^-1", "r"]],  # fp only, optional
      "table": [[0, 1], [1, 0]],           # finite_table only
      "element_names": ["e", "s"],         # finite_table, optional
      "generator_window": 1,               # shift_extension only
      "subgroup": "K0",                    # shift_extension tail subgroups
      "subgroup_generators": ["a^2", "b"],  # all other families
      "subgroup_abelian": true,            # optional claim, verified
      "left": {...}, "right": {...}        # direct_product factors
    }

Words are space-separated tokens ``name`` or ``name^k`` with ``|k|`` at most
``MAX_POWER``, a word expands to at most ``MAX_WORD_LETTERS`` letters and
the words of a document to at most ``MAX_DOCUMENT_LETTERS`` together; shift
extensions use base generator names ``g<i>`` (``g0``, ``g-1``, ...) and the
stable letter ``t``.  Unknown fields are rejected.

Matrix inclusion documents::

    {
      "blocks": [2], "weights": [0.5],
      "subalgebra_generators": [element, ...],
      "intermediate_generators": [element, ...],   # optional
      "witness_pairs": [[element, element], ...],  # optional
      "seed": 42, "tolerances": {"reconstruction": 1e-9}  # optional
    }

An element is a list of blocks, each block an ``n x n`` array of
``[re, im]`` pairs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Optional

from . import words as W
from .errors import InputFormatError
from .groups import (
    DirectProductDescriptor,
    FiniteTableGroup,
    FpGroupDescriptor,
    FreeGroupDescriptor,
    ShiftExtensionDescriptor,
)
from .subgroups import SubgroupSpec, product_subgroup, shift_tail_subgroup, subgroup
from .tolerances import Tolerances

_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9_\-]*?)(?:\^(-?\d+))?$")
MAX_POWER = 10_000  # largest |k| of a word token name^k
MAX_WORD_LETTERS = 2 * MAX_POWER  # most letters one word expands to
MAX_DOCUMENT_LETTERS = 2 * MAX_WORD_LETTERS  # most letters all words of a document expand to


@dataclass
class GroupInclusionDoc:
    subgroup: SubgroupSpec  # holds the group as subgroup.group
    claim_abelian: bool = False


@dataclass
class MatrixInclusionDoc:
    blocks: list
    weights: list
    subalgebra_generators: list
    intermediate_generators: Optional[list] = None
    witness_pairs: list = field(default_factory=list)
    seed: Optional[int] = None
    tolerances: Tolerances = field(default_factory=Tolerances)


def _require_fields(doc: dict, allowed: set, required: set, context: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise InputFormatError(f"{context}: unknown fields {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise InputFormatError(f"{context}: missing fields {sorted(missing)}")


def _number(value, kind, context: str, what: str):
    """``kind(value)`` for a finite JSON number, integral when ``kind`` is
    ``int``; strings, nulls, booleans, lists and integers beyond the float
    range are input errors."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not _finite(value) or (kind is int and value != int(value))):
        expected = "an integer" if kind is int else "a finite number"
        raise InputFormatError(f"{context}: {what} must be {expected}, got {value!r}")
    return kind(value)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _list(values, context: str, what: str) -> list:
    if not isinstance(values, list):
        raise InputFormatError(f"{context}: {what} must be a list, got {values!r}")
    return values


def _numbers(values, kind, context: str, what: str) -> list:
    """``_number`` over a list; a list of plain ints (no bools) passes as it is."""
    values = _list(values, context, what)
    if kind is int and all(type(value) is int for value in values):
        return values
    return [_number(value, kind, context, what) for value in values]


def _strings(values, context: str, what: str) -> list:
    values = _list(values, context, what)
    for value in values:
        if not isinstance(value, str):
            raise InputFormatError(f"{context}: {what} must hold strings, got {value!r}")
    return values


def _tokens(text: str, context: str, read: list) -> list:
    """``(name, power)`` for each token ``name`` or ``name^k`` of a word.

    A power beyond ``MAX_POWER`` in size, a word of more than
    ``MAX_WORD_LETTERS`` letters, or more than ``MAX_DOCUMENT_LETTERS`` in
    the document (``read[0]`` counts them across words and factors) is an
    input error, raised before any letters are built; a power's digits are
    counted first, so a huge power is never converted.
    """
    tokens, letters = [], 0
    for token in text.split():
        match = _TOKEN.match(token)
        if not match:
            raise InputFormatError(f"{context}: bad token {token!r}")
        name, digits = match.group(1), match.group(2) or "1"
        if len(digits.lstrip("-0")) > len(str(MAX_POWER)) or abs(int(digits)) > MAX_POWER:
            raise InputFormatError(f"{context}: power of {name!r} exceeds {MAX_POWER} in size")
        power = int(digits)
        letters += abs(power)
        if letters > MAX_WORD_LETTERS:
            raise InputFormatError(
                f"{context}: word expands to more than {MAX_WORD_LETTERS} letters")
        read[0] += abs(power)
        if read[0] > MAX_DOCUMENT_LETTERS:
            raise InputFormatError(
                f"{context}: words expand to more than {MAX_DOCUMENT_LETTERS} letters")
        tokens.append((name, power))
    return tokens


def _parse_word(text: str, name_to_id: dict, context: str, read: list) -> W.Word:
    letters: list = []
    for name, power in _tokens(text, context, read):
        if name not in name_to_id:
            raise InputFormatError(f"{context}: unknown generator {name!r}")
        letters.extend(W.generator(name_to_id[name], power))
    return W.reduce_word(letters)


def _parse_shift_word(text: str, group: ShiftExtensionDescriptor, context: str, read: list):
    element = group.identity()
    for name, power in _tokens(text, context, read):
        if name == "t":
            step = group.stable_letter(power)
        elif name.startswith("g"):
            try:
                index = int(name[1:])
            except ValueError:
                raise InputFormatError(f"{context}: bad base generator {name!r}") from None
            step = group.base_generator(index, power)
        else:
            raise InputFormatError(f"{context}: unknown generator {name!r}")
        element = group.multiply(element, step)
    return element


def parse_group_inclusion(doc: dict, context: str = "inclusion",
                          read: Optional[list] = None) -> GroupInclusionDoc:
    read = [0] if read is None else read  # the document's letters so far (see _tokens)
    if not isinstance(doc, dict):
        raise InputFormatError(f"{context}: expected an object")
    family = doc.get("family")
    if family == "free":
        _require_fields(doc, {"family", "generators", "subgroup_generators", "subgroup_abelian"},
                        {"family", "generators", "subgroup_generators"}, context)
        names = _strings(doc["generators"], context, "generators")
        group = FreeGroupDescriptor(range(len(names)), dict(enumerate(names)))
        ids = {n: i for i, n in enumerate(names)}
        gens = [group.element(_parse_word(w, ids, context, read))
                for w in _strings(doc["subgroup_generators"], context, "subgroup_generators")]
        spec = subgroup(group, gens)
    elif family == "fp":
        _require_fields(
            doc,
            {"family", "generators", "relators", "rewriting_rules",
             "subgroup_generators", "subgroup_abelian"},
            {"family", "generators", "relators", "subgroup_generators"},
            context,
        )
        names = _strings(doc["generators"], context, "generators")
        ids = {n: i for i, n in enumerate(names)}
        relators = [_parse_word(w, ids, context, read)
                    for w in _strings(doc["relators"], context, "relators")]
        rules = None
        if "rewriting_rules" in doc:
            rules = []
            for rule in _list(doc["rewriting_rules"], context, "rewriting_rules"):
                if len(_strings(rule, context, "a rewriting rule")) != 2:
                    raise InputFormatError(f"{context}: rewriting rules are two-word lists")
                rules.append(tuple(_parse_word(w, ids, context, read) for w in rule))
        group = FpGroupDescriptor(len(names), relators, names=names, rewriting_rules=rules)
        gens = [group.element(_parse_word(w, ids, context, read))
                for w in _strings(doc["subgroup_generators"], context, "subgroup_generators")]
        spec = subgroup(group, gens)
    elif family == "finite_table":
        _require_fields(
            doc,
            {"family", "table", "element_names", "subgroup_generators", "subgroup_abelian"},
            {"family", "table", "subgroup_generators"},
            context,
        )
        table = [_numbers(row, int, context, "table rows")
                 for row in _list(doc["table"], context, "table")]
        names = doc.get("element_names")
        if names is not None:
            names = _strings(names, context, "element_names")
        group = FiniteTableGroup(table, names)
        names = {n: i for i, n in enumerate(group.names)}
        gens = []
        for token in _strings(doc["subgroup_generators"], context, "subgroup_generators"):
            if token not in names:
                raise InputFormatError(f"{context}: unknown element {token!r}")
            gens.append(group.element(names[token]))
        spec = subgroup(group, gens)
    elif family == "shift_extension":
        _require_fields(
            doc,
            {"family", "generator_window", "subgroup", "subgroup_generators",
             "subgroup_abelian"},
            {"family", "generator_window"},
            context,
        )
        window = _number(doc["generator_window"], int, context, "generator_window")
        group = ShiftExtensionDescriptor(window=window)
        if "subgroup" in doc:
            label = doc["subgroup"]
            if not (isinstance(label, str) and label.startswith("K")):
                raise InputFormatError(f"{context}: subgroup must look like 'K0'")
            try:
                threshold = int(label[1:])
            except ValueError:
                raise InputFormatError(f"{context}: bad tail subgroup {label!r}") from None
            spec = shift_tail_subgroup(group, threshold)
        elif "subgroup_generators" in doc:
            gens = [_parse_shift_word(w, group, context, read)
                    for w in _strings(doc["subgroup_generators"], context, "subgroup_generators")]
            spec = subgroup(group, gens)
        else:
            raise InputFormatError(f"{context}: need subgroup or subgroup_generators")
    elif family == "direct_product":
        _require_fields(doc, {"family", "left", "right", "subgroup_abelian"},
                        {"family", "left", "right"}, context)
        left = parse_group_inclusion(doc["left"], context + ".left", read)
        right = parse_group_inclusion(doc["right"], context + ".right", read)
        spec = product_subgroup(DirectProductDescriptor(left.subgroup.group, right.subgroup.group),
                                left.subgroup, right.subgroup)
    else:
        raise InputFormatError(f"{context}: unknown family {family!r}")
    return GroupInclusionDoc(subgroup=spec,
                             claim_abelian=bool(doc.get("subgroup_abelian", False)))


def load_group_inclusion(path: str) -> GroupInclusionDoc:
    return parse_group_inclusion(_load_json(path), context=path)


def _parse_matrix_element(raw, blocks, context: str):
    import numpy as np  # matrix documents only: group documents never load numpy

    if not isinstance(raw, list) or len(raw) != len(blocks):
        raise InputFormatError(f"{context}: element needs one block per summand")
    out = []
    for n, block in zip(blocks, raw):
        mat = np.zeros((n, n), dtype=complex)
        if not (isinstance(block, list) and len(block) == n):
            raise InputFormatError(f"{context}: block must have {n} rows")
        for i, row in enumerate(block):
            if not (isinstance(row, list) and len(row) == n):
                raise InputFormatError(f"{context}: block must have {n} columns")
            for j, entry in enumerate(row):
                if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                    raise InputFormatError(f"{context}: entries are [re, im] pairs")
                real, imag = (_number(part, float, context, "an entry") for part in entry)
                mat[i, j] = complex(real, imag)
        out.append(mat)
    return out


def parse_matrix_inclusion(doc: dict, context: str = "inclusion") -> MatrixInclusionDoc:
    if not isinstance(doc, dict):
        raise InputFormatError(f"{context}: expected an object")
    _require_fields(
        doc,
        {"blocks", "weights", "subalgebra_generators", "intermediate_generators",
         "witness_pairs", "seed", "tolerances"},
        {"blocks", "weights", "subalgebra_generators"},
        context,
    )
    blocks = _numbers(doc["blocks"], int, context, "blocks")
    if any(n < 1 for n in blocks):
        raise InputFormatError(f"{context}: blocks must be positive, got {blocks}")
    weights = _numbers(doc["weights"], float, context, "weights")
    tolerances = Tolerances()
    if "tolerances" in doc:
        overrides = doc["tolerances"]
        if not isinstance(overrides, dict):
            raise InputFormatError(f"{context}: tolerances must be an object")
        unknown = set(overrides) - set(Tolerances.field_names())
        if unknown:
            raise InputFormatError(f"{context}: unknown tolerances {sorted(unknown)}")
        tolerances = tolerances.override(
            **{k: _number(v, float, context, f"tolerance {k!r}") for k, v in overrides.items()})
    gens = [_parse_matrix_element(e, blocks, context)
            for e in _list(doc["subalgebra_generators"], context, "subalgebra_generators")]
    mids = None
    if "intermediate_generators" in doc:
        mids = [_parse_matrix_element(e, blocks, context)
                for e in _list(doc["intermediate_generators"], context, "intermediate_generators")]
    pairs = []
    for pair in _list(doc.get("witness_pairs", []), context, "witness_pairs"):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputFormatError(f"{context}: witness pairs are two-element lists")
        pairs.append(
            (
                _parse_matrix_element(pair[0], blocks, context),
                _parse_matrix_element(pair[1], blocks, context),
            )
        )
    seed = doc.get("seed")
    return MatrixInclusionDoc(
        blocks=blocks,
        weights=weights,
        subalgebra_generators=gens,
        intermediate_generators=mids,
        witness_pairs=pairs,
        seed=None if seed is None else _number(seed, int, context, "seed"),
        tolerances=tolerances,
    )


def load_matrix_inclusion(path: str) -> MatrixInclusionDoc:
    return parse_matrix_inclusion(_load_json(path), context=path)


def encode_matrix_element(x) -> list:
    """Inverse of the element encoding, for report emission."""
    return [
        [[[float(v.real), float(v.imag)] for v in row] for row in block]
        for block in x.blocks
    ]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputFormatError(f"{path}: no such file") from None
    except json.JSONDecodeError as err:
        raise InputFormatError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from None
