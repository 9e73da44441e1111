from qnbench.coset_table import enumerate_cosets
from qnbench.words import letter

A = letter(0)
AI = letter(0, -1)
R = letter(1)
RI = letter(1, -1)

DIHEDRAL = [(R, R), (R, A, R, A)]


def test_dihedral_over_cyclic_has_index_two():
    table = enumerate_cosets(2, DIHEDRAL, [(A,)])
    assert table.complete
    assert table.index == 2
    assert table.is_member((A, A, A))
    assert table.is_member((AI,))
    assert not table.is_member((R,))
    assert not table.is_member((A, R))
    # r a r^-1 = a^-1 lies in the subgroup
    assert table.is_member((R, A, RI))


def test_whole_group_has_index_one():
    table = enumerate_cosets(2, DIHEDRAL, [(A,), (R,)])
    assert table.complete and table.index == 1


def test_finite_group_trivial_subgroup():
    # dihedral of order 6: a^3 = r^2 = (ra)^2 = 1
    table = enumerate_cosets(2, [(A, A, A), (R, R), (R, A, R, A)], [])
    assert table.complete and table.index == 6


def test_infinite_index_hits_cap():
    # free abelian rank 2 over the first factor: infinitely many cosets
    table = enumerate_cosets(2, [(A, R, AI, RI)], [(A,)], max_cosets=128)
    assert not table.complete
    assert table.created >= 128


def test_free_group_infinite_index():
    table = enumerate_cosets(2, [], [(A,)], max_cosets=64)
    assert not table.complete


def test_coset_action_is_consistent():
    table = enumerate_cosets(2, DIHEDRAL, [(A,)])
    # generators act as permutations: tracing g then g^-1 returns home
    for c in range(table.index):
        for gen in range(2):
            there = table.table[c][letter(gen)]
            assert table.table[there][letter(gen, -1)] == c


def test_klein_bottle_group_over_fiber():
    # b a b^-1 a: subgroup generated by a has infinite index
    table = enumerate_cosets(2, [(R, A, RI, A)], [(A,)], max_cosets=256)
    assert not table.complete
    # over b it is also infinite
    table2 = enumerate_cosets(2, [(R, A, RI, A)], [(R,)], max_cosets=256)
    assert not table2.complete


def test_index_three_subgroup_of_symmetric_group():
    # S3 = <s, t | s^2, t^2, (st)^3>, subgroup <s> has index 3
    rel = [(A, A), (R, R), (A, R) * 3]
    table = enumerate_cosets(2, rel, [(A,)])
    assert table.complete and table.index == 3
