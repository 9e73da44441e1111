"""Folded subgroup graphs for finitely generated subgroups of free groups.

A subgroup graph is a based, edge-labelled digraph.  Edges carry generator
ids; an edge is read forwards by its generator's letter and backwards by the
inverse letter.
After folding, every vertex has at most one outgoing and at most one incoming
edge per label, so tracing a reduced word is deterministic and a word lies in
the subgroup exactly when its trace is a closed loop at the basepoint.

Vertex ids are canonicalized by BFS order from the basepoint so that equal
subgroups produce identical structures.

The one-sided decision for ``w`` over ``H`` asks whether ``H and wHw^-1``
has finite index in ``H`` (Stallings pullback, Kapovich-Myasnikov section 9).
Two facts keep it to one walk per element.  Re-rooting ``H``'s graph at
``w`` reads ``w^-1`` from the basepoint as far as the graph allows and hangs
the unread rest on a fresh hair; the first unread letter has no edge where
the hair lands and the hair's vertices are new, so the result is already
folded.  And the spanning tree of ``H``'s graph, built once per graph, makes
its loose edges a free basis of ``H``: a loop at the basepoint spells its
element in that basis by the loose edges it crosses, in order, with exponent
-1 where it crosses one backwards.  Give each pair the pullback BFS reaches
the basis letters its tree path crosses, ``crossed(u)``.  A non-tree edge
``u -> v`` closes the loop ``crossed(u) . letter . crossed(v)^-1`` (``letter``
empty when the edge projects to a tree edge of ``H``), one free generator of
the intersection, already in ``H``'s basis.  Its projection is a loop at
``H``'s basepoint, so it is a member of ``H`` by construction and needs no
membership check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import GroupValidationError
from .words import Word, concat, exp_of, gen_of, inverse, invert_word, letter, reduce_word


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded core graph of a finitely generated free-group subgroup."""

    num_vertices: int
    # (vertex, letter) -> vertex: an edge u -> v labelled g is read forwards
    # from u by g's letter and backwards from v by its inverse
    moves: dict
    basepoint: int = 0

    # -- queries ---------------------------------------------------------

    def trace(self, word: Word, start: Optional[int] = None) -> Optional[int]:
        """Endpoint of the path reading ``word``, or None if it leaves the graph."""
        moves = self.moves
        v = self.basepoint if start is None else start
        for x in word:
            v = moves.get((v, x))
            if v is None:
                return None
        return v

    def trace_partial(self, word: Word) -> tuple[int, Word]:
        """Read as far as possible from the basepoint.

        Returns ``(vertex, remainder)`` where ``remainder`` is the unread
        suffix; it is empty exactly when the whole word traces.
        """
        moves = self.moves
        v = self.basepoint
        for i, x in enumerate(word):
            nxt = moves.get((v, x))
            if nxt is None:
                return v, word[i:]
            v = nxt
        return v, ()

    def contains(self, word: Word) -> bool:
        return self.trace(reduce_word(word)) == self.basepoint

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted(_edge(u, x, v) for (u, x), v in self.moves.items() if exp_of(x) > 0)

    def letters(self) -> set[int]:
        return {x for (_, x) in self.moves}

    # -- structure -------------------------------------------------------

    def spanning_tree(self) -> tuple[dict, list[tuple[int, int, int]]]:
        """BFS spanning tree from the basepoint.

        Returns ``(parent, loose)`` where ``parent[v] = (u, x)``: reading
        letter ``x`` from ``v`` walks one step towards the basepoint, to
        ``u``.  ``loose`` lists the non-tree edges in canonical order; they
        are a free basis of the subgroup.  Moves from a vertex go in letter
        order, so by label, the forward edge before the backward one; a
        folded graph has at most one of each.
        """
        letters = sorted(self.letters())
        parent: dict[int, tuple[int, int]] = {}
        queue = [self.basepoint]
        tree_edges: set[tuple[int, int, int]] = set()
        for v in queue:  # also visits vertices appended below
            for x in letters:
                w = self.moves.get((v, x))
                if w is not None and w != self.basepoint and w not in parent:
                    parent[w] = (v, inverse(x))
                    tree_edges.add(_edge(v, x, w))
                    queue.append(w)
        loose = [e for e in self.edges() if e not in tree_edges]
        return parent, loose

    @cached_property
    def basis_letters(self) -> dict[tuple[int, int, int], int]:
        """Loose edge ``(u, gen, v)`` -> its generator in the free basis;
        built once per graph."""
        _, loose = self.spanning_tree()
        return {edge: i for i, edge in enumerate(loose)}


def _edge(u: int, x: int, w: int) -> tuple[int, int, int]:
    """The edge ``(tail, gen, head)`` that reading letter ``x`` from ``u`` to ``w`` crosses."""
    return (u, gen_of(x), w) if exp_of(x) > 0 else (w, gen_of(x), u)


# -- construction ----------------------------------------------------------


def build_subgroup_graph(generators: Sequence[Word]) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by the given words.

    An empty generator list yields the one-vertex graph of the trivial
    subgroup.
    """
    edges: list[tuple[int, int, int]] = []  # (tail, gen, head)
    fresh = 1
    for raw in generators:
        word = reduce_word(raw)
        if not word:
            continue
        path = [0, *range(fresh, fresh + len(word) - 1), 0]
        edges.extend(_edge(u, x, v) for u, x, v in zip(path, word, path[1:]))
        fresh += len(word) - 1
    return _finish(fresh, edges, 0)


def _finish(num_vertices: int, edges: list[tuple[int, int, int]],
            basepoint: int) -> SubgroupGraph:
    edges = _fold(num_vertices, edges)
    return _trim_and_canonicalize(edges, basepoint)


def _fold(num_vertices: int, edges: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    parent = list(range(num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    changed = True
    while changed:
        changed = False
        by_out: dict[tuple[int, int], int] = {}
        by_in: dict[tuple[int, int], int] = {}
        for u, gen, v in edges:
            ru, rv = find(u), find(v)
            if (ru, gen) in by_out and by_out[(ru, gen)] != rv:
                union(by_out[(ru, gen)], rv)
                changed = True
            else:
                by_out[(ru, gen)] = rv
            if (rv, gen) in by_in and by_in[(rv, gen)] != ru:
                union(by_in[(rv, gen)], ru)
                changed = True
            else:
                by_in[(rv, gen)] = ru
    return sorted({(find(u), gen, find(v)) for u, gen, v in edges})


def _trim_and_canonicalize(edges: Iterable[tuple[int, int, int]], basepoint: int) -> SubgroupGraph:
    edges = set(edges)
    # core: iteratively drop non-basepoint leaves (one incident edge endpoint)
    while True:
        degree: dict[int, int] = {}
        for u, _, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        leaves = {v for v, d in degree.items() if d == 1 and v != basepoint}
        if not leaves:
            break
        edges = {(u, g, v) for u, g, v in edges if u not in leaves and v not in leaves}

    moves: dict[tuple[int, int], int] = {}
    for u, gen, v in edges:
        forward, backward = (u, letter(gen)), (v, letter(gen, -1))
        if forward in moves or backward in moves:
            raise GroupValidationError("folding left a duplicate edge")
        moves[forward] = v
        moves[backward] = u

    # canonical relabel: BFS from basepoint, moves in letter order
    letters = sorted({x for (_, x) in moves})
    relabel = {basepoint: 0}
    queue = [basepoint]
    for v in queue:  # also visits vertices appended below
        for x in letters:
            nxt = moves.get((v, x))
            if nxt is not None and nxt not in relabel:
                relabel[nxt] = len(relabel)
                queue.append(nxt)
    moves = {(relabel[u], x): relabel[v] for (u, x), v in moves.items()}
    return SubgroupGraph(num_vertices=len(relabel) or 1, moves=moves, basepoint=0)


# -- operations ------------------------------------------------------------


def graph_index(graph: SubgroupGraph, alphabet: Sequence[int]):
    """``("finite", n)`` when the graph is a full cover of rank ``len(alphabet)``.

    A folded core graph covers the rose exactly when every vertex carries an
    outgoing and an incoming edge for every generator; the subgroup index then
    equals the vertex count.  Otherwise the index is infinite.
    """
    for v in range(graph.num_vertices):
        for gen in alphabet:
            if (v, letter(gen)) not in graph.moves or (v, letter(gen, -1)) not in graph.moves:
                return ("infinite", None)
    return ("finite", graph.num_vertices)


def _pullback(g1: SubgroupGraph, g2: SubgroupGraph, basis: dict) -> list[Word]:
    """Free generators of the intersection of two subgroups, in ``g1``'s basis.

    One BFS over the based pullback of the two folded graphs; ``basis`` is
    ``g1.basis_letters``.  Each non-tree edge of the pullback yields one
    generator (see the module docstring), found from its forward side.
    """
    letters = sorted(g1.letters() & g2.letters())
    start = (g1.basepoint, g2.basepoint)
    ids = {start: 0}
    pairs = [start]
    crossed: list[Word] = [()]  # g1-basis letters along a pair's tree path
    # the letter a pair was reached by: read backwards, its tree edge is the
    # pair's own forward edge with the inverse letter, which must not count twice
    reached_by: list[Optional[int]] = [None]
    found: list[Word] = []
    for i, (u1, u2) in enumerate(pairs):  # also visits pairs appended below
        for x in letters:
            w1, w2 = g1.moves.get((u1, x)), g2.moves.get((u2, x))
            if w1 is None or w2 is None:
                continue
            index = basis.get(_edge(u1, x, w1))
            step = () if index is None else (letter(index, exp_of(x)),)
            j = ids.get((w1, w2))
            if j is None:
                ids[(w1, w2)] = len(pairs)
                pairs.append((w1, w2))
                reached_by.append(x)
                crossed.append(concat(crossed[i], step))
            elif exp_of(x) > 0 and reached_by[i] != inverse(x):
                found.append(concat(crossed[i], step, invert_word(crossed[j])))
    return found


def _reroot(graph: SubgroupGraph, word: Word) -> SubgroupGraph:
    """Folded graph of ``w H w^-1`` for a reduced ``w``, based at a new
    vertex; not trimmed, and its vertex ids are not canonical."""
    vertex, rest = graph.trace_partial(invert_word(word))
    if not rest:
        return SubgroupGraph(graph.num_vertices, graph.moves, basepoint=vertex)
    hair = invert_word(rest)
    moves = dict(graph.moves)
    fresh = graph.num_vertices
    path = [*range(fresh, fresh + len(hair)), vertex]
    for u, x, w in zip(path, hair, path[1:]):
        moves[(u, x)] = w
        moves[(w, inverse(x))] = u
    return SubgroupGraph(fresh + len(hair), moves, basepoint=fresh)


def conjugate_graph(graph: SubgroupGraph, by: Word) -> SubgroupGraph:
    """Graph of ``w H w^-1`` for ``w = by``."""
    word = reduce_word(by)
    if not word:
        return graph
    rerooted = _reroot(graph, word)
    return _trim_and_canonicalize(rerooted.edges(), rerooted.basepoint)


def graphs_equal(g1: SubgroupGraph, g2: SubgroupGraph) -> bool:
    """Equality of subgroups via canonical forms."""
    return (
        g1.num_vertices == g2.num_vertices
        and g1.basepoint == g2.basepoint
        and g1.moves == g2.moves
    )


def free_qn1_decide(graph: SubgroupGraph, word: Word):
    """Decide one-sided quasi-normalization of a word over a f.g. subgroup.

    Returns ``("in", k)`` when the intersection ``H and wHw^-1`` has finite
    index ``k`` in ``H`` (equivalently, the left cosets meeting ``Hw`` number
    ``k``, the minimal cover size), else ``("out", None)``.

    The index is computed exactly, by the rose-cover test on the
    intersection written in ``H``'s basis.  The module docstring says why
    one pullback walk yields that rewriting, why re-rooting needs no fold,
    and why no membership check is needed.
    """
    word = reduce_word(word)
    if graph.contains(word):
        return ("in", 1)
    rank = len(graph.basis_letters)
    if rank == 0:
        # trivial subgroup: H w is the singleton {w}, covered by w H
        return ("in", 1)
    loops = _pullback(graph, _reroot(graph, word), graph.basis_letters)
    kind, count = graph_index(build_subgroup_graph(loops), range(rank))
    if kind == "finite":
        return ("in", count)
    return ("out", None)
