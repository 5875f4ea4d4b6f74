"""The block code: a bijection between a class and bounded partition tuples."""

from collections import Counter
from itertools import product

import pytest

from mahonian import (
    AlphabetMismatch,
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
    relation_from_mask,
    validate_code,
)
from mahonian.bcode import _PLAN_CACHE_SIZE, _block_structure

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
        BCode(((1.9,),), (0,))  # int() would store the part 1
    with pytest.raises(InvalidCode):
        BCode(((1,),), (False,))
    with pytest.raises(InvalidCode):
        bcode_decode(CHAIN, ALPHA, BCode(((4, 2, 2), (1,), (0, 0, 0)), (3, 0, 2)))


def test_code_rejects_non_iterables():
    for partitions, markers in (((1, 2), (0, 0)), (((1,),), 0), (None, (0,))):
        with pytest.raises(InvalidCode):
            BCode(partitions, markers)
    with pytest.raises(InvalidCode):
        BCode.from_json_dict({"partitions": [1, 2], "markers": [0, 0]})


def test_only_a_bcode_is_checked_or_decoded():
    data = BCode(((4, 2, 1, 1), (1,), (0, 0, 0)), (3, 0, 2)).to_json_dict()
    for code in (data, ((4, 2, 1, 1), (1,), (0, 0, 0)), None):
        with pytest.raises(InvalidCode, match="a code must be a BCode"):
            validate_code(CHAIN, ALPHA, code)
        with pytest.raises(InvalidCode, match="a code must be a BCode"):
            bcode_decode(CHAIN, ALPHA, code)


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
    _block_structure.cache_clear()
    code = BCode(((4, 2, 1, 1), (1,), (0, 0, 0)), (3, 0, 2))
    word = bcode_decode(CHAIN, ALPHA, code)
    assert word.letters == (4, 2, 3, 4, 1, 5, 1, 4)
    assert (len(checks), len(bipartitions)) == (1, 1)
    # encode on the same class reuses the plan decode derived
    assert bcode_encode(CHAIN, word) == code
    assert (len(checks), len(bipartitions)) == (1, 1)
    # decode reports a malformed code exactly as validate_code does
    bad = BCode(((5, 2, 2, 1), (1,), (0, 0, 0)), (3, 0, 2))
    with pytest.raises(InvalidCode) as by_validate:
        validate_code(CHAIN, ALPHA, bad)
    with pytest.raises(InvalidCode) as by_decode:
        bcode_decode(CHAIN, ALPHA, bad)
    assert str(by_decode.value) == str(by_validate.value)


def test_a_billion_copies_are_counted_and_checked_without_a_copy():
    """The plan holds block letters and masses, never copies, so
    validate_code and code_count answer at once on a class of 10^9 + 1
    words."""
    alpha = MultiplicityVector((10**9, 1))
    u = Relation.from_pairs(2, [(2, 1)])
    assert code_count(u, alpha) == class_size(alpha) == 10**9 + 1
    with pytest.raises(InvalidCode, match="partition 2 must have 1000000000 parts, got 1"):
        validate_code(u, alpha, BCode(((0,), (0,)), (0, 0)))


def test_equal_relations_and_classes_share_one_plan():
    _block_structure.cache_clear()
    plan = _block_structure(CHAIN, ALPHA)
    twin = Relation.from_pairs(CHAIN.n, sorted(CHAIN.edges))
    twin_alpha = MultiplicityVector(tuple(list(ALPHA.counts)))
    assert twin is not CHAIN and twin_alpha is not ALPHA
    assert _block_structure(twin, twin_alpha) is plan
    info = _block_structure.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    word = make_word((4, 2, 3, 4, 5, 4, 1, 1), twin_alpha)
    assert bcode_encode(twin, word) == bcode_encode(CHAIN, word)


def test_a_failing_class_raises_on_every_call():
    u = Relation.from_pairs(2, [(1, 2)])
    alpha = MultiplicityVector((2, 2))
    with pytest.raises(ConditionsNotSatisfied) as first:
        code_count(u, alpha)
    reasons = list(first.value.reasons)
    assert reasons
    first.value.reasons.append("changed by the caller")
    with pytest.raises(ConditionsNotSatisfied) as second:
        code_count(u, alpha)
    assert second.value.reasons == reasons
    with pytest.raises(AlphabetMismatch):
        code_count(natural_order(3), alpha)
    with pytest.raises(AlphabetMismatch):
        code_count(natural_order(3), alpha)


def test_round_trips_survive_plan_eviction():
    _block_structure.cache_clear()
    word = make_word((4, 2, 3, 4, 5, 4, 1, 1), ALPHA)
    code = bcode_encode(CHAIN, word)
    nat3 = natural_order(3)
    for k in range(1, _PLAN_CACHE_SIZE + 9):
        alpha = MultiplicityVector((1, 1, k))
        assert code_count(nat3, alpha) == class_size(alpha)
    assert _block_structure.cache_info().currsize == _PLAN_CACHE_SIZE
    misses = _block_structure.cache_info().misses
    assert bcode_decode(CHAIN, ALPHA, code).letters == word.letters
    assert bcode_encode(CHAIN, word) == code
    # the worked class was evicted, so it was derived again, once
    assert _block_structure.cache_info().misses == misses + 1


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


def encode_under_rule(relation, word, rule):
    """bcode_encode's block bookkeeping over a naive selection sort that moves
    the copy the rule picks: the rightmost, the leftmost, or under
    copy-label-max the one with the largest original position."""
    blocks, block_of, _ = _block_structure(relation, word.alpha)
    work = [(x, label) for label, x in enumerate(word.letters)]
    contributions = [[] for _ in blocks]
    markers = [0] * len(blocks)
    for i in range(len(work) - 1, -1, -1):
        largest = max(x for x, _ in work[: i + 1])
        copies = [h for h in range(i + 1) if work[h][0] == largest]
        if rule == TIE_RIGHTMOST:
            j = copies[-1]
        elif rule == TIE_LEFTMOST:
            j = copies[0]
        else:
            j = max(copies, key=lambda h: work[h][1])
        b = block_of[largest]
        if not contributions[b] and blocks[b][0] != blocks[b][-1]:
            subword = [x for x, _ in work if block_of[x] == b]
            markers[b] = subword.index(blocks[b][-1]) + 1
        passed = work[j + 1 : i + 1]
        contributions[b].append(sum((largest, y) in relation for y, _ in passed))
        work[j], work[i] = work[i], work[j]
    partitions = tuple(tuple(sorted(c, reverse=True)) for c in contributions)
    return BCode(partitions, tuple(markers))


def test_other_tie_rules_break_the_bijection():
    """Frozen counterexamples from the rule sweep: with copy-label-max or
    leftmost driving the sort, decode(encode(w)) lands on a different word."""
    nat3 = natural_order(3)
    a121 = MultiplicityVector((1, 2, 1))
    word = make_word((3, 1, 2, 2), a121)
    code = encode_under_rule(nat3, word, TIE_COPY_LABEL_MAX)
    assert code.partitions == ((3,), (1, 1), (0,))
    assert bcode_decode(nat3, a121, code).letters == (3, 2, 1, 2)

    u = Relation.from_pairs(2, [(2, 1)])
    a12 = MultiplicityVector((1, 2))
    word = make_word((2, 1, 2), a12)
    code = encode_under_rule(u, word, TIE_LEFTMOST)
    assert code.partitions == ((1, 1), (0,))
    assert bcode_decode(u, a12, code).letters == (2, 2, 1)

    # rightmost is the rule the decoder inverts
    for relation, alpha in small_cases():
        for w in rearrangement_class(alpha):
            assert encode_under_rule(relation, w, TIE_RIGHTMOST) == bcode_encode(
                relation, w
            )


def test_code_matches_the_naive_sort_on_every_small_relation():
    """Every relation on n <= 3 letters and every class with counts 1..3
    that the code accepts: encode equals the block bookkeeping over the naive
    rightmost sort, which reads the relation's edges, decode inverts it, and
    every code round-trips."""
    pairs = words = 0
    for n in range(1, 4):
        for counts in product(range(1, 4), repeat=n):
            alpha = MultiplicityVector(counts)
            for mask in range(1 << (n * n)):
                relation = relation_from_mask(n, mask)
                try:
                    size = code_count(relation, alpha)
                except ConditionsNotSatisfied:
                    continue
                pairs += 1
                for word in rearrangement_class(alpha):
                    code = bcode_encode(relation, word)
                    assert code == encode_under_rule(relation, word, TIE_RIGHTMOST)
                    assert bcode_decode(relation, alpha, code) == word
                    words += 1
                codes = list(enumerate_codes(relation, alpha))
                assert len(codes) == size
                for code in codes:
                    assert bcode_encode(relation, bcode_decode(relation, alpha, code)) == code
    assert (pairs, words) == (156, 8128)
