"""The block code: a bijection between a class and bounded partition tuples."""

from collections import Counter

import pytest

from mahonian import (
    BCode,
    BCODE_TIE_RULE,
    ConditionsNotSatisfied,
    InvalidCode,
    MultiplicityVector,
    OrderedBipartition,
    Relation,
    TIE_COPY_LABEL_MAX,
    TIE_LEFTMOST,
    TIE_RIGHTMOST,
    bcode_decode,
    bcode_encode,
    class_size,
    code_count,
    enumerate_codes,
    from_ordered_bipartition,
    graphical_sorting_index,
    make_word,
    natural_order,
    rearrangement_class,
    validate_code,
)
from mahonian.bcode import _encode_with_rule

CHAIN = from_ordered_bipartition(
    OrderedBipartition(
        (frozenset({4, 5}), frozenset({3}), frozenset({1, 2})), (0, 0, 0)
    )
)
ALPHA = MultiplicityVector((2, 1, 1, 3, 1))


def test_bcode_tie_rule_is_rightmost():
    assert BCODE_TIE_RULE == TIE_RIGHTMOST


def test_encode_worked_example():
    word = make_word((4, 2, 3, 4, 5, 4, 1, 1), ALPHA)
    code = bcode_encode(CHAIN, word)
    assert code.partitions == ((4, 2, 2, 1), (1,), (0, 0, 0))
    assert code.markers == (3, 0, 2)
    assert code.total() == 10
    assert code.total() == graphical_sorting_index(
        CHAIN, word, tie_rule=TIE_RIGHTMOST
    )
    assert bcode_decode(CHAIN, ALPHA, code).letters == word.letters


def test_ascending_word_gets_the_zero_code():
    word = make_word((1, 1, 2, 3, 4, 4, 4, 5), ALPHA)
    code = bcode_encode(CHAIN, word)
    assert code.partitions == ((0, 0, 0, 0), (0,), (0, 0, 0))
    # for a two-letter block the marker records where its larger letter sits
    # among the block's copies; in the sorted word that is the last slot
    assert code.markers == (4, 0, 3)
    assert bcode_decode(CHAIN, ALPHA, code).letters == word.letters


def test_decode_then_encode_is_the_identity_on_codes():
    code = BCode(((4, 2, 1, 1), (1,), (0, 0, 0)), (3, 0, 2))
    word = bcode_decode(CHAIN, ALPHA, code)
    assert word.letters == (4, 2, 3, 4, 1, 5, 1, 4)
    assert bcode_encode(CHAIN, word) == code


def small_cases():
    yield (
        from_ordered_bipartition(
            OrderedBipartition((frozenset({2}), frozenset({1})), (0, 0))
        ),
        MultiplicityVector((1, 2)),
    )
    yield natural_order(3), MultiplicityVector((1, 2, 1))
    yield (
        from_ordered_bipartition(
            OrderedBipartition((frozenset({2, 3}), frozenset({1})), (0, 0))
        ),
        MultiplicityVector((2, 1, 1)),
    )


@pytest.mark.parametrize("case", range(3))
def test_code_is_a_bijection_on_small_classes(case):
    relation, alpha = list(small_cases())[case]
    codes = list(enumerate_codes(relation, alpha))
    assert len(codes) == code_count(relation, alpha) == class_size(alpha)
    decoded = {bcode_decode(relation, alpha, code).letters for code in codes}
    assert decoded == {w.letters for w in rearrangement_class(alpha)}
    for word in rearrangement_class(alpha):
        code = bcode_encode(relation, word)
        validate_code(relation, alpha, code)
        assert bcode_decode(relation, alpha, code).letters == word.letters


@pytest.mark.parametrize("case", range(3))
def test_code_total_tracks_the_sorting_index(case):
    relation, alpha = list(small_cases())[case]
    by_code = Counter(
        code.total() for code in enumerate_codes(relation, alpha)
    )
    by_sor = Counter(
        graphical_sorting_index(relation, w, tie_rule=TIE_RIGHTMOST)
        for w in rearrangement_class(alpha)
    )
    assert by_code == by_sor


def test_code_count_formula_on_the_worked_class():
    # C(4+3,4) per-block bounds times the marker choices of two-letter blocks
    assert code_count(CHAIN, ALPHA) == 70 * 4 * 4 * 1 * 3 == 3360
    assert class_size(ALPHA) == 3360


def test_validate_code_rejects_malformed_codes():
    cases = [
        BCode(((4, 2, 2), (1,), (0, 0, 0)), (3, 0, 2)),  # short partition
        BCode(((4, 2, 2, 1), (1,)), (3, 0)),  # missing block
        BCode(((1, 2, 0, 0), (0,), (0, 0, 0)), (3, 0, 2)),  # increasing parts
        BCode(((5, 2, 2, 1), (1,), (0, 0, 0)), (3, 0, 2)),  # part above bound
        BCode(((4, 2, 2, 1), (1,), (0, 0, 0)), (0, 0, 2)),  # marker 0 on 2-letter
        BCode(((4, 2, 2, 1), (1,), (0, 0, 0)), (5, 0, 2)),  # marker above mass
        BCode(((4, 2, 2, 1), (1,), (0, 0, 0)), (3, 1, 2)),  # marker on 1-letter
    ]
    for code in cases:
        with pytest.raises(InvalidCode):
            validate_code(CHAIN, ALPHA, code)
    with pytest.raises(InvalidCode):
        BCode(((1,),), (0, 0))  # one marker per partition
    with pytest.raises(InvalidCode):
        bcode_decode(CHAIN, ALPHA, BCode(((4, 2, 2), (1,), (0, 0, 0)), (3, 0, 2)))


def test_decode_checks_the_conditions_once(monkeypatch):
    import mahonian.bcode as bcode_module
    import mahonian.relations as relations_module

    checks, bipartitions = [], []
    real_check = bcode_module._sorting_bipartition
    real_bipartition = relations_module.to_ordered_bipartition

    def counted_check(relation, alpha):
        checks.append(1)
        return real_check(relation, alpha)

    def counted_bipartition(relation):
        bipartitions.append(1)
        return real_bipartition(relation)

    monkeypatch.setattr(bcode_module, "_sorting_bipartition", counted_check)
    monkeypatch.setattr(
        relations_module, "to_ordered_bipartition", counted_bipartition
    )
    code = BCode(((4, 2, 1, 1), (1,), (0, 0, 0)), (3, 0, 2))
    word = bcode_decode(CHAIN, ALPHA, code)
    assert word.letters == (4, 2, 3, 4, 1, 5, 1, 4)
    assert (len(checks), len(bipartitions)) == (1, 1)
    # encode derives the sorting bipartition once as well
    assert bcode_encode(CHAIN, word) == code
    assert (len(checks), len(bipartitions)) == (2, 2)
    # decode reports a malformed code exactly as validate_code does
    bad = BCode(((5, 2, 2, 1), (1,), (0, 0, 0)), (3, 0, 2))
    with pytest.raises(InvalidCode) as by_validate:
        validate_code(CHAIN, ALPHA, bad)
    with pytest.raises(InvalidCode) as by_decode:
        bcode_decode(CHAIN, ALPHA, bad)
    assert str(by_decode.value) == str(by_validate.value)


def test_code_requires_every_letter_to_occur():
    with pytest.raises(ConditionsNotSatisfied) as err:
        bcode_encode(natural_order(2), make_word((2,), MultiplicityVector((0, 1))))
    assert any("code construction" in reason for reason in err.value.reasons)


def test_code_requires_a_thin_last_block():
    # a two-letter last block whose top letter repeats has too few codes:
    # {2,1} with multiplicities (2,2) gives 4 codes for 6 words
    u = from_ordered_bipartition(OrderedBipartition((frozenset({1, 2}),), (0,)))
    alpha = MultiplicityVector((2, 2))
    with pytest.raises(ConditionsNotSatisfied) as err:
        code_count(u, alpha)
    assert any("code construction" in reason for reason in err.value.reasons)
    # three or more letters in the last block is out as well
    u3 = from_ordered_bipartition(OrderedBipartition((frozenset({1, 2, 3}),), (0,)))
    with pytest.raises(ConditionsNotSatisfied):
        bcode_encode(u3, make_word((1, 2, 3), MultiplicityVector((1, 1, 1))))


def test_code_requires_the_sorting_conditions():
    with pytest.raises(ConditionsNotSatisfied) as err:
        code_count(Relation.from_pairs(2, [(1, 2)]), MultiplicityVector((2, 2)))
    assert any(reason.startswith("condition") for reason in err.value.reasons)


def test_code_json_round_trip():
    code = BCode(((4, 2, 2, 1), (1,), (0, 0, 0)), (3, 0, 2))
    data = code.to_json_dict()
    assert data == {"partitions": [[4, 2, 2, 1], [1], [0, 0, 0]], "markers": [3, 0, 2]}
    assert BCode.from_json_dict(data) == code
    with pytest.raises(InvalidCode):
        BCode.from_json_dict({"partitions": [[1]]})


def test_other_tie_rules_break_the_bijection():
    """Frozen counterexamples from the rule sweep: with copy-label-max or
    leftmost driving the sort, decode(encode(w)) lands on a different word."""
    nat3 = natural_order(3)
    a121 = MultiplicityVector((1, 2, 1))
    word = make_word((3, 1, 2, 2), a121)
    code = _encode_with_rule(nat3, word, TIE_COPY_LABEL_MAX)
    assert code.partitions == ((3,), (1, 1), (0,))
    assert bcode_decode(nat3, a121, code).letters == (3, 2, 1, 2)

    u = Relation.from_pairs(2, [(2, 1)])
    a12 = MultiplicityVector((1, 2))
    word = make_word((2, 1, 2), a12)
    code = _encode_with_rule(u, word, TIE_LEFTMOST)
    assert code.partitions == ((1, 1), (0,))
    assert bcode_decode(u, a12, code).letters == (2, 2, 1)

    # rightmost is the rule the decoder inverts
    for relation, alpha in small_cases():
        for w in rearrangement_class(alpha):
            assert _encode_with_rule(relation, w, TIE_RIGHTMOST) == bcode_encode(
                relation, w
            )
