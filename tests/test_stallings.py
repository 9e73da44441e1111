import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from qnbench.errors import GroupValidationError
from qnbench.stallings import (
    SubgroupGraph,
    _finish,
    build_subgroup_graph,
    conjugate_graph,
    free_qn1_decide,
    graph_index,
    graphs_equal,
)
from qnbench.words import concat, exp_of, gen_of, generator, invert_word, letter, reduce_word

A = generator(0)
B = generator(1)
AI = invert_word(A)
BI = invert_word(B)

# index-2 subgroup of F2: kernel of a -> 1, b -> 0 (mod 2)
INDEX_TWO = [concat(A, A), B, concat(A, B, AI)]


def words_in(gens, max_len):
    """Oracle: all products of at most max_len generator letters."""
    letters = [g for w in gens for g in (w, invert_word(w))]
    seen = {()}
    frontier = {()}
    for _ in range(max_len):
        frontier = {concat(w, l) for w in frontier for l in letters}
        seen |= frontier
    return seen


def test_cyclic_subgroup_graph():
    g = build_subgroup_graph([A])
    assert g.num_vertices == 1
    assert g.edges() == [(0, 0, 0)]


def test_index_two_graph_is_complete():
    g = build_subgroup_graph(INDEX_TWO)
    assert g.num_vertices == 2
    # every vertex carries every label in both directions
    for v, gen, exp in itertools.product(range(2), range(2), (1, -1)):
        assert (v, letter(gen, exp)) in g.moves


def test_a2_b_graph():
    g = build_subgroup_graph([concat(A, A), B])
    assert g.num_vertices == 2
    # b-loop at the basepoint only
    assert g.moves[(0, letter(1))] == 0
    assert (1, letter(1)) not in g.moves


def test_empty_generators_trivial_subgroup():
    g = build_subgroup_graph([])
    assert g.num_vertices == 1
    assert g.edges() == []
    assert g.contains(())
    assert not g.contains(A)


def test_membership_examples():
    g = build_subgroup_graph([A])
    assert g.contains(concat(A, A, A))
    assert not g.contains(B)
    assert not g.contains(concat(B, A, BI))


@settings(max_examples=60)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=6))
def test_membership_agrees_with_word_search(picks):
    gens = [concat(A, A), concat(B, A)]
    g = build_subgroup_graph(gens)
    letters = [gens[0], invert_word(gens[0]), gens[1], invert_word(gens[1])]
    w = ()
    for p in picks:
        w = concat(w, letters[p % 4])
    assert g.contains(w)


def test_graph_index():
    assert graph_index(build_subgroup_graph(INDEX_TWO), [0, 1]) == ("finite", 2)
    assert graph_index(build_subgroup_graph([A]), [0, 1]) == ("infinite", None)
    assert graph_index(build_subgroup_graph([A, B]), [0, 1]) == ("finite", 1)


def test_conjugates():
    ga = build_subgroup_graph([A])
    assert graphs_equal(conjugate_graph(ga, concat(A, A, A)), ga)

    byb = conjugate_graph(ga, B)
    assert graphs_equal(byb, build_subgroup_graph([concat(B, A, BI)]))
    assert not graphs_equal(byb, ga)

    triv = build_subgroup_graph([])
    assert graphs_equal(conjugate_graph(triv, concat(B, A)), triv)


@settings(max_examples=40)
@given(st.integers(-5, 5), st.integers(0, 3))
def test_conjugate_membership(k, l):
    g = build_subgroup_graph([concat(A, A), B])
    w = concat(generator(1, l), generator(0, 2 * k))
    conj = conjugate_graph(g, w)
    for h in [concat(A, A), B, concat(B, A, A)]:
        assert conj.contains(concat(w, h, invert_word(w))) == g.contains(h)


def test_folding_order_invariance():
    # same subgroup from shuffled generator lists gives identical graphs
    gens = [concat(A, A), B, concat(A, B, AI)]
    for perm in itertools.permutations(gens):
        assert graphs_equal(build_subgroup_graph(list(perm)), build_subgroup_graph(gens))


def test_complete_graph_example_from_hand_folding():
    g = build_subgroup_graph(INDEX_TWO)
    # complete: both vertices have a- and b-edges out and in
    assert {(v, gen) for v in range(2) for gen in range(2)} == {(u, gen) for u, gen, _ in g.edges()}


def test_free_qn1_member_gives_index_one():
    g = build_subgroup_graph([A])
    assert free_qn1_decide(g, generator(0, 5)) == ("in", 1)


def test_free_qn1_rejects_b_over_cyclic_a():
    g = build_subgroup_graph([A])
    assert free_qn1_decide(g, B) == ("out", None)


def test_free_qn1_finite_index_subgroup_commensurated():
    g = build_subgroup_graph(INDEX_TWO)
    kind, k = free_qn1_decide(g, A)
    assert kind == "in" and k <= 2


def brute_coset_orbit(gens, g, cap):
    """Oracle: left cosets h.g.H for h in the subgroup, via word search."""
    graph = build_subgroup_graph(gens)
    reps = [reduce_word(g)]
    frontier = [reduce_word(g)]
    letters = [w for x in gens for w in (x, invert_word(x))]
    while frontier and len(reps) <= cap:
        rep = frontier.pop(0)
        for l in letters:
            cand = concat(l, rep)
            if not any(graph.contains(concat(invert_word(r), cand)) for r in reps):
                reps.append(cand)
                frontier.append(cand)
    return len(reps), not frontier


def test_free_qn1_matches_brute_orbit():
    g = build_subgroup_graph(INDEX_TWO)
    for word in [A, B, concat(A, B), concat(B, A, B)]:
        kind, k = free_qn1_decide(g, word)
        size, closed = brute_coset_orbit(INDEX_TWO, word, 8)
        assert kind == "in" and closed and k == size

    ga = build_subgroup_graph([A])
    size, closed = brute_coset_orbit([A], B, 12)
    assert free_qn1_decide(ga, B) == ("out", None) and not closed


def test_basis_and_rewrite():
    g = build_subgroup_graph(INDEX_TWO)
    basis = reference_basis(g)
    assert len(basis) == 3  # rank of an index-2 subgroup of F2
    for w in basis:
        assert g.contains(w)
    expr = reference_rewrite_in_basis(g, concat(A, A, B))
    # reassemble from basis words and compare
    assembled = ()
    for x in expr:
        word = basis[gen_of(x)]
        assembled = concat(assembled, word if exp_of(x) > 0 else invert_word(word))
    assert assembled == reduce_word(concat(A, A, B))
    assert reference_rewrite_in_basis(g, A) is None


def test_finite_index_matches_coset_enumeration():
    # oracle: BFS over left cosets wH using the even-a-exponent membership
    def member(w):
        return sum(exp_of(x) for x in w if gen_of(x) == 0) % 2 == 0

    reps = [()]
    frontier = [()]
    letters = [A, AI, B, BI]
    while frontier:
        rep = frontier.pop(0)
        for l in letters:
            cand = concat(rep, l)
            if not any(member(concat(invert_word(r), cand)) for r in reps):
                reps.append(cand)
                frontier.append(cand)
        if len(reps) > 8:
            break
    assert graph_index(build_subgroup_graph(INDEX_TWO), [0, 1]) == ("finite", len(reps))


# -- reference: the fold-based decision ----------------------------------------
#
# The decision used to conjugate by folding a path into the graph, fold the
# pullback into a meet graph, and rewrite each member of the meet's basis in
# H's basis by tracing it.  It is kept here as the oracle for the one-walk
# version in the module.


def reference_spanning_tree(graph: SubgroupGraph):
    """BFS tree whose moves come from a scan of every edge per vertex."""
    parent = {}
    seen = {graph.basepoint}
    queue = [graph.basepoint]
    tree_edges = set()
    while queue:
        v = queue.pop(0)
        moves = []
        for u, gen, w in graph.edges():
            if u == v:
                moves.append((gen, 1, w))
            if w == v:
                moves.append((gen, -1, u))
        moves.sort(key=lambda m: (m[0], 0 if m[1] > 0 else 1, m[2]))
        for gen, exp, w in moves:
            if w not in seen:
                seen.add(w)
                parent[w] = (v, letter(gen, -exp))
                tree_edges.add((v, gen, w) if exp > 0 else (w, gen, v))
                queue.append(w)
    return parent, [e for e in graph.edges() if e not in tree_edges]


def reference_path_to_basepoint(graph, v, parent):
    letters = []
    while v != graph.basepoint:
        u, x = parent[v]
        letters.append(x)
        v = u
    return tuple(letters)


def reference_basis(graph):
    """Free basis: one word per non-tree edge."""
    parent, loose = reference_spanning_tree(graph)
    paths = {v: invert_word(reference_path_to_basepoint(graph, v, parent))
             for v in range(graph.num_vertices)}
    return [concat(paths[u], generator(gen), invert_word(paths[v])) for u, gen, v in loose]


def reference_rewrite_in_basis(graph, word):
    """A member in the non-tree-edge basis, or None for a non-member."""
    word = reduce_word(word)
    if graph.trace(word) != graph.basepoint:
        return None
    _, loose = reference_spanning_tree(graph)
    index = {edge: i for i, edge in enumerate(loose)}
    v = graph.basepoint
    letters = []
    for x in word:
        gen, exp = gen_of(x), exp_of(x)
        w = graph.trace((x,), start=v)
        edge = (v, gen, w) if exp > 0 else (w, gen, v)
        if edge in index:
            letters.append(letter(index[edge], exp))
        v = w
    return reduce_word(letters)


def reference_graph_intersect(g1, g2):
    start = (g1.basepoint, g2.basepoint)
    seen = {start: 0}
    queue = [start]
    labels = sorted({gen for _, gen, _ in g1.edges() + g2.edges()})
    edges = []
    while queue:
        v1, v2 = pair = queue.pop(0)
        vid = seen[pair]
        for gen in labels:
            forward, backward = letter(gen), letter(gen, -1)
            w1, w2 = g1.moves.get((v1, forward)), g2.moves.get((v2, forward))
            if w1 is not None and w2 is not None:
                if (w1, w2) not in seen:
                    seen[(w1, w2)] = len(seen)
                    queue.append((w1, w2))
                edges.append([vid, gen, seen[(w1, w2)]])
            u1, u2 = g1.moves.get((v1, backward)), g2.moves.get((v2, backward))
            if u1 is not None and u2 is not None:
                if (u1, u2) not in seen:
                    seen[(u1, u2)] = len(seen)
                    queue.append((u1, u2))
                edges.append([seen[(u1, u2)], gen, vid])
    return _finish(len(seen), edges, 0)


def reference_conjugate_graph(graph, by):
    word = reduce_word(by)
    if not word:
        return graph
    # new basepoint 0, a path spelling `word` into the old basepoint, fold
    offset = len(word)
    edges = [[u + offset, gen, v + offset] for u, gen, v in graph.edges()]
    old_bp = graph.basepoint + offset
    v = 0
    for i, x in enumerate(word):
        target = old_bp if i == len(word) - 1 else i + 1
        edges.append([v, gen_of(x), target] if exp_of(x) > 0 else [target, gen_of(x), v])
        v = target
    return _finish(offset + graph.num_vertices, edges, 0)


def reference_free_qn1_decide(graph, word):
    word = reduce_word(word)
    if graph.contains(word):
        return ("in", 1)
    meet = reference_graph_intersect(graph, reference_conjugate_graph(graph, word))
    rank = len(reference_basis(graph))
    if rank == 0:
        return ("in", 1)
    rewritten = []
    for member in reference_basis(meet):
        expr = reference_rewrite_in_basis(graph, member)
        if expr is None:
            raise GroupValidationError("pullback produced a non-member word")
        rewritten.append(expr)
    kind, count = graph_index(build_subgroup_graph(rewritten), range(rank))
    return ("in", count) if kind == "finite" else ("out", None)


def stabilizer_generators(perms):
    """Schreier generators of the stabilizer of point 0 under the right action
    ``p . a_i = perms[i][p]``; its index is the size of the orbit of 0."""
    inverse = [{image: point for point, image in enumerate(perm)} for perm in perms]
    reps = {0: ()}
    queue = [0]
    gens = []
    for p in queue:
        for i, perm in enumerate(perms):
            for exp, q in ((1, perm[p]), (-1, inverse[i][p])):
                step = concat(reps[p], generator(i, exp))
                if q in reps:
                    gens.append(concat(step, invert_word(reps[q])))
                else:
                    reps[q] = step
                    queue.append(q)
    return gens


def letters_of(rank):
    return st.builds(letter, st.integers(0, rank - 1), st.sampled_from([1, -1]))


@st.composite
def free_cases(draw):
    """``(H's generators, w)``: 1-3 generators of length up to 7 in F2 or F3."""
    rank = draw(st.sampled_from([2, 3]))
    words = st.lists(letters_of(rank), max_size=7).map(tuple)
    gens = draw(st.lists(words, min_size=1, max_size=3))
    return gens, draw(st.lists(letters_of(rank), max_size=10).map(tuple))


@st.composite
def stabilizer_cases(draw):
    """``(H's generators, w)``: H is a point stabilizer of a random action of
    F2 or F3 on 2-7 points, so it has finite index and covers above 1 occur."""
    rank = draw(st.sampled_from([2, 3]))
    points = draw(st.integers(2, 7))
    perms = [draw(st.permutations(range(points))) for _ in range(rank)]
    return stabilizer_generators(perms), draw(st.lists(letters_of(rank), max_size=10).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.one_of(free_cases(), stabilizer_cases()))
def test_free_qn1_decide_matches_fold_reference(case):
    gens, word = case
    graph = build_subgroup_graph(gens)
    assert graph.spanning_tree() == reference_spanning_tree(graph)
    assert free_qn1_decide(graph, word) == reference_free_qn1_decide(graph, word)


@settings(max_examples=200, deadline=None)
@given(st.one_of(free_cases(), stabilizer_cases()))
def test_conjugate_matches_fold_reference(case):
    gens, word = case
    graph = build_subgroup_graph(gens)
    new, old = conjugate_graph(graph, word), reference_conjugate_graph(graph, word)
    assert graphs_equal(new, old)  # compares the moves of both directions


def test_stabilizer_cases_reach_covers_above_one():
    # S3 acting on three points: the stabilizer of 0 has index 3, and an
    # element moving 0 meets it in index 2
    gens = stabilizer_generators([(1, 0, 2), (1, 2, 0)])
    graph = build_subgroup_graph(gens)
    assert graph_index(graph, [0, 1]) == ("finite", 3)
    assert free_qn1_decide(graph, B) == reference_free_qn1_decide(graph, B) == ("in", 2)
