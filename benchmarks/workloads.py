"""Seeded job lists for the qnbench benchmark.

Each workload is a fixed list of jobs; a job is one ``qnbench`` command line
(``group``, ``vn`` or ``verify-paper``) run through ``qnbench.cli.main``.
The seed decides the generated documents and nothing else:

* group documents are images of fixed templates under isomorphisms that map
  the radius-``r`` ball onto itself (signed permutations of free generators,
  relabelled multiplication tables, conjugated finite subgroups).  The cost
  of a job and the multiset of its verdicts are therefore the same for every
  seed, while the bytes the program reads differ;
* matrix documents draw their subalgebra generator from the seed, the way the
  acceptance suite does, on fixed block structures;
* ``paper`` passes the seed to ``verify-paper --seed``.

The same seed gives byte-identical documents.  Run as a script to write the
documents of one workload::

    python3 benchmarks/workloads.py --workload group-exact --seed 42 --out /tmp/docs
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_inputs"

BUDGET = 1000

# One line per workload: why it was chosen (BENCHMARK.json carries the same text).
WORKLOADS = {
    "group-orbit": (
        "group reports spent in budget-bound coset-orbit BFS: shift tails at "
        "radius 3-4 and F2 x S3 at radius 2, many rows unknown"
    ),
    "group-exact": (
        "group reports decided by exact backends (Stallings, coset table, finite "
        "subsets) and C1 growth; orbit BFS about 2%"
    ),
    "vn-large": (
        "vn on seeded algebras of dimension 16-36 without witness pairs, plus "
        "the matrix samples, so basic_construction and its span-matrix SVD dominate"
    ),
    "paper": (
        "verify-paper criteria 1-9: many small constructions, orthonormal_basis "
        "sweeps, the gap optimizer and the group criteria"
    ),
}


@dataclass
class Job:
    """One CLI invocation; ``argv`` is passed to ``qnbench.cli.main``."""

    name: str
    kind: str  # "group", "vn" or "paper"
    argv: list  # the job's name is also its key in the stored reference outputs
    doc: Optional[Path] = None
    warmup_argv: list = field(default_factory=list)


# -- permutation groups given as tables ---------------------------------------


def _compose(p, q):
    """(p q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_name(p) -> str:
    """Element name used in generated tables: ``p`` plus one-line notation."""
    return "p" + "".join(str(x) for x in p)


def _cycle(*points, degree):
    p = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


def _table_doc(rng: random.Random, degree: int, sub_gens: list) -> dict:
    """Symmetric group on ``degree`` points as a relabelled table, with the
    subgroup generated by ``sub_gens`` conjugated by a seeded permutation."""
    elements = list(itertools.permutations(range(degree)))
    rng.shuffle(elements)
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[_compose(p, q)] for q in elements] for p in elements]
    c = list(range(degree))
    rng.shuffle(c)
    c = tuple(c)
    c_inv = _inverse(c)
    conj = [_compose(_compose(c, g), c_inv) for g in sub_gens]
    return {
        "family": "finite_table",
        "table": table,
        "element_names": [perm_name(p) for p in elements],
        "subgroup_generators": [perm_name(g) for g in conj],
    }


# -- free groups ----------------------------------------------------------------


def _signed_permutation(rng: random.Random, rank: int) -> dict:
    """A random automorphism of F_rank permuting generators up to inversion;
    it maps every ball around the identity onto itself."""
    letters = "abc"[:rank]
    image = list(letters)
    rng.shuffle(image)
    return {x: (y, rng.choice((1, -1))) for x, y in zip(letters, image)}


def _apply(auto: dict, word: str) -> str:
    out = []
    for token in word.split():
        name, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        target, sign = auto[name]
        k *= sign
        out.append(target if k == 1 else f"{target}^{k}")
    return " ".join(out)


def _free_doc(rng: random.Random, rank: int, sub_words: list) -> dict:
    auto = _signed_permutation(rng, rank)
    return {
        "family": "free",
        "generators": list("abc"[:rank]),
        "subgroup_generators": [_apply(auto, w) for w in sub_words],
    }


# -- matrix documents -----------------------------------------------------------


def _weights(rng: random.Random, blocks: list) -> list:
    raw = [rng.random() + 0.2 for _ in blocks]
    total = sum(w * n for w, n in zip(raw, blocks))
    return [w / total for w in raw]


def _selfadjoint(rng: random.Random, blocks: list) -> list:
    """Random self-adjoint element as the acceptance suite draws it:
    ``(X + X*) / 2`` for a complex Gaussian ``X`` in every block."""
    out = []
    for n in blocks:
        x = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
        out.append([[[(x[i][j] + x[j][i].conjugate()).real / 2,
                      (x[i][j] - x[j][i].conjugate()).imag / 2] for j in range(n)]
                    for i in range(n)])
    return out


def _diagonal(rng: random.Random, blocks: list) -> list:
    """Diagonal self-adjoint element with distinct entries: its closure is the
    diagonal subalgebra."""
    values = rng.sample(range(1, 1000), sum(blocks))
    out, at = [], 0
    for n in blocks:
        out.append([[[float(values[at + i]) if i == j else 0.0, 0.0] for j in range(n)]
                    for i in range(n)])
        at += n
    return out


def _matrix_doc(rng: random.Random, blocks: list, draw: str) -> dict:
    gen = _selfadjoint(rng, blocks) if draw == "random" else _diagonal(rng, blocks)
    return {"blocks": blocks, "weights": _weights(rng, blocks), "subalgebra_generators": [gen]}


# -- job lists ------------------------------------------------------------------

S3_TRANSPOSITION = [_cycle(0, 1, degree=3)]
F2_CYCLIC = ["a"]

# (template name, degree, subgroup generators)
TABLE_TEMPLATES = [
    ("s4_transposition", 4, [_cycle(0, 1, degree=4)]),
    ("s4_four_cycle", 4, [_cycle(0, 1, 2, 3, degree=4)]),
    ("s4_klein", 4, [_cycle(0, 1, degree=4), _cycle(2, 3, degree=4)]),
    ("s5_transposition", 5, [_cycle(0, 1, degree=5)]),
    ("s5_five_cycle", 5, [_cycle(0, 1, 2, 3, 4, degree=5)]),
]

# (template name, rank, subgroup generators, radius)
FREE_TEMPLATES = [
    ("f2_commutator", 2, ["a b a^-1 b^-1"], 5),
    ("f2_index_three", 2, ["a^3", "b", "a b a^-1", "a^2 b a^-2"], 4),
    ("f2_two_squares", 2, ["a^2", "b^2"], 5),
    ("f3_free_factor", 3, ["a", "b"], 3),
    ("f3_index_two", 3, ["a^2", "b", "c", "a b a^-1", "a c a^-1"], 3),
]

# (blocks, draw)
MATRIX_TEMPLATES = [
    ([4], "random"),
    ([5], "diagonal"),
    ([3, 3, 2], "random"),
    ([5, 3], "diagonal"),
    ([6], "random"),
]


def _group_job(name, path, radius, warmup_radius=1) -> Job:
    argv = ["group", str(path), "--radius", str(radius), "--budget", str(BUDGET)]
    warm = ["group", str(path), "--radius", str(warmup_radius), "--budget", str(BUDGET)]
    return Job(name=name, kind="group", argv=argv, doc=path, warmup_argv=warm)


def _write(out_dir: Path, name: str, doc: dict) -> Path:
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


def _copy_sample(out_dir: Path, name: str) -> Path:
    path = out_dir / name
    shutil.copyfile(SAMPLES / name, path)
    return path


def build_jobs(workload: str, seed: int, out_dir: Path) -> list:
    """Write the workload's documents for ``seed`` into ``out_dir`` and return
    its job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    if workload == "group-orbit":
        shift = _copy_sample(out_dir, "shift_tail.json")
        for radius in (3, 4):
            jobs.append(_group_job(f"shift_tail.r{radius}", shift, radius))
        tail = _write(out_dir, "shift_k1_w2",
                      {"family": "shift_extension", "generator_window": 2, "subgroup": "K1"})
        jobs.append(_group_job("shift_k1_w2.r2", tail, 2))
        product = {"family": "direct_product",
                   "left": _free_doc(rng, 2, F2_CYCLIC),
                   "right": _table_doc(rng, 3, S3_TRANSPOSITION)}
        path = _write(out_dir, "f2_x_s3", product)
        jobs.append(_group_job("f2_x_s3.r2", path, 2))
    elif workload == "group-exact":
        for sample, radius in (("f2_cyclic", 5), ("f2_index_two", 4),
                               ("infinite_dihedral", 5), ("lattice_rank_two", 5)):
            path = _copy_sample(out_dir, f"{sample}.json")
            jobs.append(_group_job(f"{sample}.r{radius}", path, radius))
        for name, rank, words, radius in FREE_TEMPLATES:
            path = _write(out_dir, name, _free_doc(rng, rank, words))
            jobs.append(_group_job(f"{name}.r{radius}", path, radius))
        for name, degree, gens in TABLE_TEMPLATES:
            path = _write(out_dir, name, _table_doc(rng, degree, gens))
            jobs.append(_group_job(f"{name}.r1", path, 1, warmup_radius=0))
    elif workload == "vn-large":
        for sample in ("diag_m2", "full_m2", "rescaled_weights"):
            path = _copy_sample(out_dir, f"{sample}.json")
            jobs.append(Job(name=sample, kind="vn", argv=["vn", str(path)], doc=path,
                            warmup_argv=["vn", str(path)]))
        for i, (blocks, draw) in enumerate(MATRIX_TEMPLATES):
            name = "m" + "_".join(str(n) for n in blocks) + f"_{draw}"
            path = _write(out_dir, name, _matrix_doc(rng, blocks, draw))
            argv = ["vn", str(path)]
            # the first (smallest) generated document also warms BLAS and LAPACK
            jobs.append(Job(name=name, kind="vn", argv=argv, doc=path,
                            warmup_argv=argv if i == 0 else []))
    else:
        for n in range(1, 10):
            argv = ["verify-paper", "--criteria", str(n), "--seed", str(seed)]
            warm = argv if n in (1, 2, 3, 4, 5, 7) else []
            jobs.append(Job(name=f"criterion_{n}", kind="paper", argv=argv, warmup_argv=warm))
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    for job in build_jobs(args.workload, args.seed, args.out):
        print(job.name, " ".join(job.argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
