"""Property tests: profile linearity, the one-shot essential predicate
against the exhaustive loop-assignment scan it replaced, and ranged class
enumeration against slices of the full enumeration."""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from mahonian import (
    EssentialWitness,
    MultiplicityVector,
    OrderedBipartition,
    Relation,
    TIE_RULES,
    class_size,
    from_ordered_bipartition,
    graphical_inversions,
    graphical_major_index,
    graphical_sorting_index,
    is_essentially_bipartitional,
    rearrangement_class,
    rearrangement_class_range,
    relation_from_mask,
    to_ordered_bipartition,
)
from mahonian.statistics import inversion_profile, major_profile, sorting_profile


@st.composite
def words_and_masks(draw):
    n = draw(st.integers(1, 4))
    letters = draw(st.lists(st.integers(1, n), max_size=8))
    mask = draw(st.integers(0, (1 << (n * n)) - 1))
    return n, letters, mask


@settings(max_examples=300, deadline=None)
@given(words_and_masks())
def test_statistics_are_profile_sums(case):
    n, letters, mask = case
    relation = relation_from_mask(n, mask)
    bits = [b for b in range(n * n) if mask >> b & 1]

    def summed(profile):
        return sum(profile[b] for b in bits)

    assert summed(inversion_profile(n, letters)) == graphical_inversions(
        relation, letters
    )
    assert summed(major_profile(n, letters)) == graphical_major_index(
        relation, letters
    )
    for rule in TIE_RULES:
        assert summed(sorting_profile(n, letters, rule)) == graphical_sorting_index(
            relation, letters, rule
        )


def essential_by_scan(relation, alpha):
    """Reference: try every loop assignment to the multiplicity-1 letters in
    binary-counter order (bit b for the b-th smallest free letter, set meaning
    loop present) and return the first bipartitional variant."""
    free = [x for x in range(1, relation.n + 1) if alpha.count_of(x) == 1]
    base = relation.edges - {(x, x) for x in free}
    for counter in range(1 << len(free)):
        present = {free[b] for b in range(len(free)) if counter >> b & 1}
        variant = Relation(relation.n, base | {(x, x) for x in present})
        bp = to_ordered_bipartition(variant)
        if bp is not None:
            removed = frozenset(
                x for x in free if (x, x) in relation.edges and x not in present
            )
            added = frozenset(x for x in present if (x, x) not in relation.edges)
            return EssentialWitness(removed, added, bp)
    return None


@st.composite
def near_bipartitional(draw, n):
    """A bipartitional relation with some loops toggled and, sometimes, one
    more pair toggled: most of these are essentially bipartitional for some
    classes and not for others."""
    letters = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0] + cuts + [n]
    blocks = [letters[a:b] for a, b in zip(bounds, bounds[1:])]
    flags = draw(st.lists(st.integers(0, 1), min_size=len(blocks), max_size=len(blocks)))
    edges = set(from_ordered_bipartition(OrderedBipartition(blocks, flags)).edges)
    edges ^= {(x, x) for x in draw(st.sets(st.integers(1, n)))}
    if draw(st.booleans()):
        edges ^= {(draw(st.integers(1, n)), draw(st.integers(1, n)))}
    return Relation(n, frozenset(edges))


@st.composite
def relations_and_classes(draw):
    n = draw(st.integers(1, 5))
    relation = draw(
        st.one_of(
            st.integers(0, (1 << (n * n)) - 1).map(lambda m: relation_from_mask(n, m)),
            near_bipartitional(n),
        )
    )
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return relation, MultiplicityVector(tuple(counts))


@settings(max_examples=500, deadline=None)
@given(relations_and_classes())
def test_essential_predicate_matches_the_loop_scan(case):
    relation, alpha = case
    assert is_essentially_bipartitional(relation, alpha) == essential_by_scan(
        relation, alpha
    )


@st.composite
def class_ranges(draw):
    n = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    alpha = MultiplicityVector(tuple(counts))
    a = draw(st.integers(0, class_size(alpha)))
    b = draw(st.integers(a, class_size(alpha)))
    return alpha, a, b


@settings(max_examples=300, deadline=None)
@given(class_ranges())
def test_class_range_is_a_slice_of_the_class(case):
    # every distribution runs through the ranged enumeration, which starts
    # by unranking its first word
    alpha, a, b = case
    ranged = [word.letters for word in rearrangement_class_range(alpha, a, b)]
    full = [word.letters for word in islice(rearrangement_class(alpha, None), b)]
    assert ranged == full[a:b]
