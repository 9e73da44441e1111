"""Output checks for benchmark jobs.

A job fails when it raises, exits non-zero, or its output fails a check:

* ``group``: the top-level fields keep the reference order; every row that
  the reference decided (``certified_in`` / ``certified_out``) keeps its
  status and cover size, while ``unknown`` and ``skipped`` rows may become
  decided.  Generated documents differ per seed but are isomorphic images of
  one template, so for every seed the decided rows are compared as a
  multiset of ``(status, cover_size)``; when the document is byte-identical
  to the reference document the comparison is also row by row.  Rows of
  ``finite_table`` documents are checked against ``|HgH| / |H|`` computed here
  from the table alone.
* ``vn``: all four identities report ``ok``.
* ``verify-paper``: every criterion passes.

All checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Optional

DECIDED = ("certified_in", "certified_out")
IDENTITIES = ("trace_identity", "compression_identity", "vector_norm_match",
              "module_reconstruction")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CheckFailure(Exception):
    """An output that contradicts the reference or an independent count."""


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def reference_entry(job, output: dict) -> dict:
    """What the reference keeps of one job's output at the default seed."""
    entry = {"keys": list(output)}
    if job.kind == "group":
        entry["doc_sha256"] = sha256_of(job.doc)
        entry["rows"] = [[r["element"], r["qn1_status"], r["cover_size"]]
                         for r in output["gamma_ball"]]
    return entry


def _decided_counts(rows) -> Counter:
    return Counter((status, cover) for _, status, cover in rows if status in DECIDED)


def check_group(output: dict, ref: dict, doc_sha256: Optional[str] = None,
                table_doc: Optional[dict] = None) -> None:
    if list(output) != ref["keys"]:
        raise CheckFailure(f"top-level fields {list(output)} differ from {ref['keys']}")
    rows = [[r["element"], r["qn1_status"], r["cover_size"]] for r in output["gamma_ball"]]
    if len(rows) != len(ref["rows"]):
        raise CheckFailure(f"{len(rows)} ball rows, reference has {len(ref['rows'])}")
    got, want = _decided_counts(rows), _decided_counts(ref["rows"])
    for key, count in want.items():
        if got[key] < count:
            raise CheckFailure(f"{count - got[key]} rows lost the decided verdict {key}")
    if doc_sha256 == ref.get("doc_sha256"):
        by_element = {r[0]: r for r in rows}
        for element, status, cover in ref["rows"]:
            row = by_element.get(element)
            if row is None:
                raise CheckFailure(f"row {element} is missing")
            if status in DECIDED and (row[1], row[2]) != (status, cover):
                raise CheckFailure(f"row {element}: {row[1]}/{row[2]}, reference {status}/{cover}")
    if table_doc is not None:
        check_table_rows(output, table_doc)


def double_coset_sizes(table_doc: dict) -> dict:
    """``|HgH| / |H|`` for every element name, from the table alone."""
    table = table_doc["table"]
    names = table_doc["element_names"]
    index = {name: i for i, name in enumerate(names)}
    gens = [index[n] for n in table_doc["subgroup_generators"]]
    subgroup = {_identity(table)}
    frontier = list(subgroup)
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = table[x][s]
            if y not in subgroup:
                subgroup.add(y)
                frontier.append(y)
    sizes = {}
    for g in range(len(table)):
        left = {table[h][g] for h in subgroup}
        double = {table[x][h] for x in left for h in subgroup}
        sizes[names[g]] = (len(double) // len(subgroup), g in subgroup)
    return sizes


def _identity(table) -> int:
    for i, row in enumerate(table):
        if all(row[j] == j for j in range(len(row))):
            return i
    raise CheckFailure("table has no identity")


def check_table_rows(output: dict, table_doc: dict) -> None:
    sizes = double_coset_sizes(table_doc)
    for row in output["gamma_ball"]:
        cover, member = sizes[row["element"]]
        if row["in_subgroup"] != ("yes" if member else "no"):
            raise CheckFailure(f"{row['element']}: membership {row['in_subgroup']}")
        if row["qn1_status"] != "certified_in" or row["cover_size"] != cover:
            raise CheckFailure(f"{row['element']}: {row['qn1_status']}/{row['cover_size']}, "
                               f"|HgH|/|H| = {cover}")


def check_vn(output: dict, ref: dict) -> None:
    if list(output) != ref["keys"]:
        raise CheckFailure(f"top-level fields {list(output)} differ from {ref['keys']}")
    for name in IDENTITIES:
        if output["identities"].get(name, {}).get("ok") is not True:
            raise CheckFailure(f"identity {name} is not ok")


def check_paper(output: dict, ref: dict) -> None:
    if list(output) != ref["keys"]:
        raise CheckFailure(f"top-level fields {list(output)} differ from {ref['keys']}")
    failing = [c["criterion"] for c in output["criteria"] if c["passed"] is not True]
    if failing or output["all_passed"] is not True:
        raise CheckFailure(f"criteria {failing} failed")


def check_job(job, rc: int, text: str, ref: dict) -> None:
    """Raise CheckFailure unless the job's exit code and output are right."""
    if rc != 0:
        raise CheckFailure(f"exit code {rc}")
    try:
        output = json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckFailure(f"output is not JSON: {err}") from None
    try:
        if job.kind == "group":
            doc = json.loads(job.doc.read_text(encoding="utf-8"))
            table_doc = doc if doc.get("family") == "finite_table" else None
            check_group(output, ref, sha256_of(job.doc), table_doc)
        elif job.kind == "vn":
            check_vn(output, ref)
        else:
            check_paper(output, ref)
    except (KeyError, TypeError, AttributeError) as err:
        raise CheckFailure(f"malformed output: {err!r}") from None
