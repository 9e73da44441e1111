import pytest

from qnbench.errors import GroupValidationError, InputFormatError
from qnbench.files import (
    MAX_DOCUMENT_LETTERS,
    load_group_inclusion,
    load_matrix_inclusion,
    parse_group_inclusion,
    parse_matrix_inclusion,
)
from qnbench.groups import Trit
from qnbench.subgroups import ProductSubgroup, is_subgroup_member
from qnbench.words import generator

SAMPLES = "sample_inputs"


def test_load_shift_file():
    doc = load_group_inclusion(f"{SAMPLES}/shift_tail.json")
    group = doc.subgroup.group
    assert group.family == "shift_extension"
    assert doc.subgroup.label == "K0"
    assert is_subgroup_member(doc.subgroup, group.base_generator(1)) is Trit.YES
    assert is_subgroup_member(doc.subgroup, group.base_generator(-1)) is Trit.NO


def test_load_free_file():
    doc = load_group_inclusion(f"{SAMPLES}/f2_cyclic.json")
    assert doc.subgroup.group.family == "free"
    assert doc.claim_abelian
    assert len(doc.subgroup.generators) == 1


def test_load_fp_file_with_rules():
    doc = load_group_inclusion(f"{SAMPLES}/infinite_dihedral.json")
    assert doc.subgroup.group.family == "fp"
    assert doc.subgroup.group.rewriting is not None and doc.subgroup.group.rewriting.verified
    a, r = doc.subgroup.group.generators()
    assert is_subgroup_member(doc.subgroup, r) is Trit.NO


def test_word_parsing_powers():
    doc = parse_group_inclusion(
        {
            "family": "free",
            "generators": ["a", "b"],
            "subgroup_generators": ["a^2 b^-1"],
        }
    )
    word = doc.subgroup.generators[0].payload
    assert word == generator(0, 2) + generator(1, -1)


def test_word_powers_up_to_the_cap():
    def free(token):
        return {"family": "free", "generators": ["a"], "subgroup_generators": [token]}

    for token, size in (("a^-10000", 10000), ("a^0000000000007", 7)):
        assert len(parse_group_inclusion(free(token)).subgroup.generators[0].payload) == size
    shift = {"family": "shift_extension", "generator_window": 1, "subgroup_generators": ["t^10001"]}
    for doc in (free("a^10001"), shift):
        with pytest.raises(InputFormatError, match="exceeds 10000 in size"):
            parse_group_inclusion(doc)



def test_word_letters_up_to_the_bound():
    # each token is within MAX_POWER, yet the word would expand to 50 005 letters
    def free(word):
        return {"family": "free", "generators": ["a", "b"], "subgroup_generators": [word]}

    assert len(parse_group_inclusion(free("a^9999 b a^10000")).subgroup.generators[0].payload) \
        == 20000
    shift = {"family": "shift_extension", "generator_window": 1,
             "subgroup_generators": ["t^10000 t^10000 g0"]}
    for doc in (free(" ".join(["a^10000 b"] * 5)), free("a^10000 b a^10000"), shift):
        with pytest.raises(InputFormatError, match="more than 20000 letters"):
            parse_group_inclusion(doc)

def test_document_letters_up_to_the_bound():
    # each word is within MAX_WORD_LETTERS, and 100 of them took over a
    # minute of graph folding; the document bound counts across words and
    # across the factors of a direct product
    def free(*words):
        return {"family": "free", "generators": ["a", "b"], "subgroup_generators": list(words)}

    full = "a^10000 b^10000"
    assert MAX_DOCUMENT_LETTERS == 2 * 20000
    assert len(parse_group_inclusion(free(full, full)).subgroup.generators) == 2
    product = {"family": "direct_product", "left": free(full), "right": free(full, "a")}
    for doc in (free(full, full, "a"), free(*["a^10000 b"] * 100), product):
        with pytest.raises(InputFormatError, match="words expand to more than 40000 letters"):
            parse_group_inclusion(doc)


def test_direct_product_document():
    doc = parse_group_inclusion(
        {
            "family": "direct_product",
            "left": {"family": "free", "generators": ["a", "b"], "subgroup_generators": ["a"]},
            "right": {"family": "free", "generators": ["x"], "subgroup_generators": ["x"]},
        }
    )
    assert doc.subgroup.group.family == "direct_product"
    assert type(doc.subgroup) is ProductSubgroup


def test_unknown_field_rejected():
    with pytest.raises(InputFormatError, match="unknown fields"):
        parse_group_inclusion(
            {"family": "free", "generators": ["a"], "subgroup_generators": [], "clr": 1}
        )


def test_missing_field_rejected():
    with pytest.raises(InputFormatError, match="missing fields"):
        parse_group_inclusion({"family": "free", "generators": ["a"]})


def test_unknown_family_rejected():
    with pytest.raises(InputFormatError, match="unknown family"):
        parse_group_inclusion({"family": "braid"})


def test_bad_token_rejected():
    with pytest.raises(InputFormatError, match="bad token"):
        parse_group_inclusion(
            {"family": "free", "generators": ["a"], "subgroup_generators": ["a^"]}
        )


def test_unknown_generator_rejected():
    with pytest.raises(InputFormatError, match="unknown generator"):
        parse_group_inclusion(
            {"family": "free", "generators": ["a"], "subgroup_generators": ["c"]}
        )


def test_matrix_document_roundtrip():
    doc = load_matrix_inclusion(f"{SAMPLES}/diag_m2.json")
    assert doc.blocks == [2]
    assert doc.seed == 42
    assert len(doc.witness_pairs) == 1
    x, y = doc.witness_pairs[0]
    assert x[0][0, 1] == 1.0
    assert y[0][1, 0] == 1.0


def test_matrix_document_bad_shape():
    with pytest.raises(InputFormatError, match="rows"):
        parse_matrix_inclusion(
            {
                "blocks": [2],
                "weights": [0.5],
                "subalgebra_generators": [[[[[1, 0]]]]],
            }
        )


def test_matrix_document_unknown_tolerance():
    with pytest.raises(InputFormatError, match="unknown tolerances"):
        parse_matrix_inclusion(
            {
                "blocks": [1],
                "weights": [1.0],
                "subalgebra_generators": [],
                "tolerances": {"nope": 1.0},
            }
        )


DIAG_M2 = {
    "blocks": [2],
    "weights": [0.5],
    "subalgebra_generators": [[[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]],
}


@pytest.mark.parametrize(
    "change, match",
    [
        ({"seed": "42"}, "seed must be an integer"),
        ({"seed": 4.5}, "seed must be an integer"),
        ({"blocks": [2.5]}, "blocks must be an integer"),
        ({"blocks": [0]}, "blocks must be positive"),
        ({"blocks": 2}, "blocks must be a list"),
        ({"weights": [float("nan")]}, "weights must be a finite number"),
        ({"weights": [True]}, "weights must be a finite number"),
        ({"tolerances": [1e-9]}, "tolerances must be an object"),
        ({"witness_pairs": [[[[[[0, 0], [1, None]], [[0, 0], [0, 0]]]],
                             [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]]]]},
         "an entry must be a finite number"),
        ({"subalgebra_generators": [[[1, 2]]]}, "columns"),
        ({"subalgebra_generators": 1}, "subalgebra_generators must be a list"),
        ({"witness_pairs": None}, "witness_pairs must be a list"),
    ],
)
def test_matrix_document_bad_values(change, match):
    with pytest.raises(InputFormatError, match=match):
        parse_matrix_inclusion({**DIAG_M2, **change})


@pytest.mark.parametrize("window", ["2", 1.5, None])
def test_group_document_bad_window(window):
    with pytest.raises(InputFormatError, match="generator_window must be an integer"):
        parse_group_inclusion(
            {"family": "shift_extension", "generator_window": window, "subgroup": "K0"}
        )


@pytest.mark.parametrize(
    "table, names, error, message",
    [
        ([[0, True], [1, 0]], None, InputFormatError,
         "inclusion: table rows must be an integer, got True"),
        ([[0, 1.5], [1, 0]], None, InputFormatError,
         "inclusion: table rows must be an integer, got 1.5"),
        ([[0, "1"], [1, 0]], None, InputFormatError,
         "inclusion: table rows must be an integer, got '1'"),
        ([[0, None], [1, 0]], None, InputFormatError,
         "inclusion: table rows must be an integer, got None"),
        ([[0, float("inf")], [1, 0]], None, InputFormatError,
         "inclusion: table rows must be an integer, got inf"),
        ([[0, 1], 1], None, InputFormatError, "inclusion: table rows must be a list, got 1"),
        ([[0, 2], [1, 0]], None, GroupValidationError, "table entries must be element indices"),
        ([[0, -1], [1, 0]], None, GroupValidationError, "table entries must be element indices"),
        ([[0, 10 ** 30], [1, 0]], None, GroupValidationError,
         "table entries must be element indices"),
        ([[0, 1], [1]], None, GroupValidationError, "multiplication table must be square"),
        ([[0, 0], [0, 0]], None, GroupValidationError, "table has no identity element"),
        ([[1, 0], [0, 0]], None, GroupValidationError, "table has no identity element"),
        ([[0, 1], [1, 1]], None, GroupValidationError, "element x1 has no inverse"),
        ([[0, 1], [1, 1]], ["e", "s"], GroupValidationError, "element s has no inverse"),
        ([[0, 1], [1, 0]], ["e"], GroupValidationError, "need one name per element"),
        ([[0, 1, 2], [1, 0, 2], [2, 2, 2]], None, GroupValidationError,
         "element x2 has no inverse"),
    ],
)
def test_table_document_messages(table, names, error, message):
    doc = {"family": "finite_table", "table": table, "subgroup_generators": []}
    if names is not None:
        doc["element_names"] = names
    with pytest.raises(error) as err:
        parse_group_inclusion(doc)
    assert str(err.value) == message


def test_integral_float_table_entries_load_as_integers():
    doc = parse_group_inclusion(
        {"family": "finite_table", "table": [[0, 1.0], [1, 0]], "subgroup_generators": ["x1"]})
    assert doc.subgroup.group.table == ((0, 1), (1, 0))
    assert type(doc.subgroup.group.table[0][1]) is int


def test_missing_file_gives_format_error(tmp_path):
    with pytest.raises(InputFormatError, match="no such file"):
        load_group_inclusion(str(tmp_path / "absent.json"))


def test_json_error_carries_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(InputFormatError, match="line 1"):
        load_group_inclusion(str(bad))
