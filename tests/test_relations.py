"""Relations, ordered bipartitions, and the block predicates."""

import itertools
import random

import pytest

from mahonian import (
    AlphabetMismatch,
    InvalidArguments,
    InvalidBipartition,
    MultiplicityVector,
    OrderedBipartition,
    Relation,
    complement,
    decompose,
    effective_core,
    from_ordered_bipartition,
    full_relation,
    is_bipartitional,
    is_essentially_bipartitional,
    is_transitive,
    natural_order,
    relation_from_json_dict,
    relation_from_mask,
    relation_from_text,
    relation_to_json_dict,
    relation_to_text,
    relation_universe,
    satisfies_sorting_conditions,
    to_ordered_bipartition,
)


def all_relations(n):
    for mask in range(1 << (n * n)):
        yield relation_from_mask(n, mask)


def all_bipartitions(n):
    """Every ordered bipartition of 1..n, by brute force."""
    letters = list(range(1, n + 1))
    for k in range(1, n + 1):
        for assignment in itertools.product(range(k), repeat=n):
            if set(assignment) != set(range(k)):
                continue
            blocks = tuple(
                frozenset(x for x, b in zip(letters, assignment) if b == i)
                for i in range(k)
            )
            for flags in itertools.product((0, 1), repeat=k):
                yield OrderedBipartition(blocks, flags)


def test_relation_construction_and_membership():
    u = Relation.from_pairs(2, [(2, 1), (2, 2)])
    assert (2, 1) in u and (2, 2) in u and (1, 2) not in u
    assert u.sorted_edges() == [(2, 1), (2, 2)]
    with pytest.raises(InvalidArguments):
        Relation(2, frozenset({(3, 1)}))
    with pytest.raises(InvalidArguments):
        Relation(0, frozenset())
    # integers are never coerced: int() would read 2.5 as 2 and "1" as 1
    with pytest.raises(InvalidArguments):
        Relation(2.5, frozenset({(2, 1)}))
    # a malformed pair is named as such, not as out of range
    with pytest.raises(InvalidArguments, match=r"pair of integers, got tuple\[float, str\]"):
        Relation.from_pairs(2, [(2.7, "1")])
    with pytest.raises(InvalidArguments, match=r"pair of integers, got tuple\[int\]"):
        Relation.from_pairs(2, [(1,)])
    with pytest.raises(InvalidArguments, match="outside 1..2 x 1..2"):
        Relation.from_pairs(2, [(3, 1)])
    with pytest.raises(InvalidArguments, match="pairs of integers"):
        Relation.from_pairs(2, [([1], 2)])


def test_relation_rejects_bool_letters():
    # True == 1, but a bool is no letter: it would be read as the pair (1, 2)
    for pair in ((True, 2), (2, False), (True, True)):
        with pytest.raises(InvalidArguments):
            Relation(2, frozenset({pair}))


def test_natural_and_full_relations():
    assert natural_order(3).edges == frozenset({(2, 1), (3, 1), (3, 2)})
    assert len(full_relation(3).edges) == 9
    assert is_bipartitional(natural_order(4))
    assert is_bipartitional(full_relation(4))


def test_complement_is_the_set_complement():
    u = Relation.from_pairs(2, [(2, 1), (2, 2)])
    assert complement(u).edges == frozenset({(1, 1), (1, 2)})


def test_complement_is_an_involution():
    for u in all_relations(2):
        assert complement(complement(u)) == u
    rng = random.Random(7)
    for _ in range(200):
        mask = rng.randrange(1 << 16)
        u = relation_from_mask(4, mask)
        assert complement(complement(u)) == u


def test_complement_of_bipartitional_reverses_blocks_and_flips_flags():
    bp = OrderedBipartition(
        (frozenset({4, 5}), frozenset({3}), frozenset({1, 2})), (0, 0, 1)
    )
    expected = OrderedBipartition(
        (frozenset({1, 2}), frozenset({3}), frozenset({4, 5})), (0, 1, 1)
    )
    assert complement(from_ordered_bipartition(bp)) == from_ordered_bipartition(expected)


def test_bipartitional_routes_agree_exhaustively():
    # closure route (U and complement transitive) vs reconstruction route
    hits = 0
    for u in all_relations(3):
        closure = is_bipartitional(u)
        rebuilt = to_ordered_bipartition(u)
        assert closure == (rebuilt is not None)
        if closure:
            hits += 1
            assert from_ordered_bipartition(rebuilt) == u
    # ordered set partitions of {1,2,3} with a flag per block: 1*2 + 6*4 + 6*8
    assert hits == 74


def test_every_bipartition_round_trips():
    for n in (1, 2, 3):
        seen = set()
        for bp in all_bipartitions(n):
            u = from_ordered_bipartition(bp)
            assert to_ordered_bipartition(u) == bp
            seen.add(u)
        assert len(seen) == len(list(all_bipartitions(n)))


def test_chain_bipartition_example():
    bp = OrderedBipartition(
        (frozenset({4, 5}), frozenset({3}), frozenset({1, 2})), (0, 0, 0)
    )
    u = from_ordered_bipartition(bp)
    assert u.sorted_edges() == [
        (3, 1), (3, 2),
        (4, 1), (4, 2), (4, 3),
        (5, 1), (5, 2), (5, 3),
    ]
    assert to_ordered_bipartition(u) == bp
    assert bp.render() == "{5,4} > {3} > {2,1}"


def test_flagged_blocks_contribute_internal_pairs():
    bp = OrderedBipartition((frozenset({1, 2}),), (1,))
    assert from_ordered_bipartition(bp) == full_relation(2)
    assert bp.render() == "_{2,1}_"


def test_non_bipartitional_reconstruction_returns_none():
    cycle = Relation.from_pairs(3, [(1, 2), (2, 3), (3, 1)])
    assert to_ordered_bipartition(cycle) is None
    assert not is_bipartitional(cycle)


def test_bipartition_validation():
    with pytest.raises(InvalidBipartition):
        OrderedBipartition((frozenset({1}),), (0, 1))
    with pytest.raises(InvalidBipartition):
        OrderedBipartition((frozenset(),), (0,))
    with pytest.raises(InvalidBipartition):
        OrderedBipartition((frozenset({1}),), (2,))
    # True == 1 and 0.0 == 0, but neither is an integer flag or letter
    with pytest.raises(InvalidBipartition):
        OrderedBipartition(([2], [1]), (True, 0.0))
    with pytest.raises(InvalidBipartition):
        OrderedBipartition(([2], [True]), (0, 0))
    # blocks must partition 1..max exactly
    with pytest.raises(InvalidBipartition):
        from_ordered_bipartition(OrderedBipartition((frozenset({1, 3}),), (0,)))
    with pytest.raises(InvalidBipartition):
        from_ordered_bipartition(
            OrderedBipartition((frozenset({1, 2}), frozenset({2})), (0, 0))
        )


def test_bipartition_json_round_trip():
    bp = OrderedBipartition(
        (frozenset({4, 5}), frozenset({3}), frozenset({1, 2})), (0, 0, 1)
    )
    data = bp.to_json_dict()
    assert data == {"blocks": [[5, 4], [3], [2, 1]], "flags": [0, 0, 1]}
    assert OrderedBipartition.from_json_dict(data) == bp
    with pytest.raises(InvalidBipartition):
        OrderedBipartition.from_json_dict({"blocks": [[1]]})


def test_decompose_splits_symmetric_and_asymmetric_parts():
    u = Relation.from_pairs(3, [(1, 2), (2, 1), (3, 1), (2, 2)])
    symmetric, asymmetric, support = decompose(u)
    assert symmetric.edges == frozenset({(1, 2), (2, 1), (2, 2)})
    assert asymmetric.edges == frozenset({(3, 1)})
    assert support == frozenset({1, 2})


def test_transitivity():
    assert is_transitive(natural_order(4))
    assert not is_transitive(Relation.from_pairs(3, [(1, 2), (2, 3)]))
    assert is_transitive(Relation(3, frozenset()))


def test_essential_witness_prefers_removing_loops():
    u = Relation.from_pairs(2, [(1, 1), (1, 2)])
    alpha = MultiplicityVector((1, 1))
    witness = is_essentially_bipartitional(u, alpha)
    assert witness is not None
    assert witness.removed_loops == frozenset({1})
    assert witness.added_loops == frozenset()
    assert witness.bipartition == OrderedBipartition(
        (frozenset({1}), frozenset({2})), (0, 0)
    )


def test_essential_witness_can_add_loops():
    # {(1,2),(2,1)} needs both loops to become one flagged block, and both
    # letters must be free for that
    u = Relation.from_pairs(2, [(1, 2), (2, 1)])
    alpha = MultiplicityVector((1, 1))
    witness = is_essentially_bipartitional(u, alpha)
    assert witness is not None
    assert witness.removed_loops == frozenset()
    assert witness.added_loops == frozenset({1, 2})
    assert witness.bipartition == OrderedBipartition((frozenset({1, 2}),), (1,))
    # with multiplicities 2 the loops are statistically visible: no adjustment
    assert is_essentially_bipartitional(u, MultiplicityVector((2, 2))) is None


def test_essential_witness_none_for_cycles():
    cycle = Relation.from_pairs(3, [(1, 2), (2, 3), (3, 1)])
    assert is_essentially_bipartitional(cycle, MultiplicityVector((1, 1, 1))) is None


def test_essential_predicate_needs_no_free_letter_cap():
    # one bipartition call answers for any number of free letters
    alpha = MultiplicityVector((1,) * 25)
    witness = is_essentially_bipartitional(natural_order(25), alpha)
    assert witness is not None
    assert len(witness.bipartition.blocks) == 25
    assert is_essentially_bipartitional(Relation(25, frozenset()), alpha) is not None


def test_essential_predicate_makes_one_reconstruction(monkeypatch):
    import mahonian.relations as relations_module

    calls = []
    real = relations_module.to_ordered_bipartition

    def counted(relation):
        calls.append(relation)
        return real(relation)

    monkeypatch.setattr(relations_module, "to_ordered_bipartition", counted)
    for free in (0, 1, 3, 6):
        alpha = MultiplicityVector((1,) * free + (2,) * (6 - free))
        for u in (natural_order(6), full_relation(6), relation_from_mask(6, 0x5A5A5A5)):
            calls.clear()
            is_essentially_bipartitional(u, alpha)
            assert len(calls) == 1


def test_essential_requires_matching_alphabets():
    with pytest.raises(AlphabetMismatch):
        is_essentially_bipartitional(natural_order(2), MultiplicityVector((1, 1, 1)))


def test_effective_core_drops_only_invisible_loops():
    u = Relation.from_pairs(2, [(1, 1), (2, 2), (2, 1)])
    core = effective_core(u, MultiplicityVector((2, 1)))
    assert core.edges == frozenset({(1, 1), (2, 1)})
    assert effective_core(u, MultiplicityVector((2, 2))) == u
    with pytest.raises(AlphabetMismatch):
        effective_core(u, MultiplicityVector((2, 1, 1)))


def test_sorting_conditions_hold_for_natural_order():
    ok, reasons = satisfies_sorting_conditions(
        natural_order(3), MultiplicityVector((1, 1, 2))
    )
    assert ok and reasons == []


def test_sorting_conditions_ignore_invisible_loops():
    u = Relation.from_pairs(2, [(2, 1), (2, 2)])
    ok, _ = satisfies_sorting_conditions(u, MultiplicityVector((2, 1)))
    assert ok
    # same relation, but now the loop letter occurs twice
    ok, reasons = satisfies_sorting_conditions(u, MultiplicityVector((1, 2)))
    assert not ok
    assert any(r.startswith("condition 1") for r in reasons)
    assert any(r.startswith("condition 2") for r in reasons)


def test_sorting_conditions_reject_wide_early_blocks():
    bp = OrderedBipartition((frozenset({1, 2, 3}), frozenset({4})), (0, 0))
    ok, reasons = satisfies_sorting_conditions(
        from_ordered_bipartition(bp), MultiplicityVector((1, 1, 1, 1))
    )
    assert not ok
    assert any(r.startswith("condition 3") for r in reasons)
    # a wide last block is fine
    ok, _ = satisfies_sorting_conditions(
        from_ordered_bipartition(
            OrderedBipartition((frozenset({4}), frozenset({1, 2, 3})), (0, 0))
        ),
        MultiplicityVector((1, 1, 1, 1)),
    )
    assert ok


def test_sorting_conditions_pin_two_letter_block_multiplicity():
    bp = OrderedBipartition((frozenset({2, 3}), frozenset({1})), (0, 0))
    u = from_ordered_bipartition(bp)
    ok, _ = satisfies_sorting_conditions(u, MultiplicityVector((1, 2, 1)))
    assert ok
    ok, reasons = satisfies_sorting_conditions(u, MultiplicityVector((1, 2, 2)))
    assert not ok
    assert any(r.startswith("condition 4") for r in reasons)


def test_sorting_conditions_on_the_chain_example():
    bp = OrderedBipartition(
        (frozenset({4, 5}), frozenset({3}), frozenset({1, 2})), (0, 0, 0)
    )
    ok, _ = satisfies_sorting_conditions(
        from_ordered_bipartition(bp), MultiplicityVector((2, 1, 1, 3, 1))
    )
    assert ok


def test_qualifying_relations_are_descending_interval_chains():
    # whenever the conditions hold for an everywhere-positive alpha, the core
    # is induced by consecutive intervals of the alphabet in descending order
    alpha = MultiplicityVector((1, 1, 2))
    for u in all_relations(3):
        ok, _ = satisfies_sorting_conditions(u, alpha)
        if not ok:
            continue
        bp = to_ordered_bipartition(effective_core(u, alpha))
        assert bp is not None and not any(bp.flags)
        top = alpha.n
        for block in bp.blocks:
            assert max(block) == top
            assert sorted(block) == list(range(min(block), max(block) + 1))
            top = min(block) - 1
        assert top == 0


def test_relation_json_and_text_round_trips():
    u = Relation.from_pairs(4, [(4, 3), (3, 3), (3, 1), (2, 3), (1, 1)])
    assert relation_from_json_dict(relation_to_json_dict(u)) == u
    assert relation_from_text(relation_to_text(u), n=4) == u
    assert relation_from_text("2 1\n\n3 1\n") == Relation.from_pairs(3, [(2, 1), (3, 1)])
    # ';' and line breaks both separate pairs, in any mix
    assert relation_from_text("4 3; 3 3\n3 1;\n2 3;1 1") == u
    with pytest.raises(InvalidArguments):
        relation_from_text("")
    with pytest.raises(InvalidArguments):
        relation_from_text("1 2 3")
    with pytest.raises(InvalidArguments):
        relation_from_text("1 2;3")
    with pytest.raises(InvalidArguments):
        relation_from_json_dict({"n": 2})


@pytest.mark.parametrize(
    "build",
    [
        lambda n: Relation(n, frozenset()),
        lambda n: relation_from_mask(n, 0),
        lambda n: relation_universe(n, max_alphabet=n),
        natural_order,
        full_relation,
    ],
    ids=["Relation", "relation_from_mask", "relation_universe", "natural", "full"],
)
def test_alphabet_size_is_capped_where_it_enters(build):
    """No relation is built on more than 1,000 letters, and natural_order and
    full_relation refuse before they build a pair (the natural order on
    1,000 letters already holds 499,500)."""
    with pytest.raises(
        InvalidArguments, match=r"alphabet size must be an integer in 1\.\.1000, got 1001"
    ):
        build(1001)
