"""Property tests: profile linearity, the selection sort against a naive
one written from its definition, bipartition reconstruction against the
closure route, the one-shot essential predicate against the exhaustive
loop-assignment scan it replaced, ranged class enumeration against a
brute-force class, the block code round trip on random qualifying
relations, the sweep's incrementally tracked second-moment form against
moments computed directly, the complement identity, the inv/maj
distribution DP and the undone sort behind the sor distribution against the
class scored word by word and against the closed forms, and the Gaussian
multinomial's product formula against box-partition counts and the DP."""

from collections import Counter
from functools import partial
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import mahonian.oracle as oracle

from mahonian import (
    EssentialWitness,
    MultiplicityVector,
    OrderedBipartition,
    QPolynomial,
    Relation,
    TIE_LEFTMOST,
    TIE_RIGHTMOST,
    TIE_RULES,
    bcode_decode,
    bcode_encode,
    box_partition_counts,
    class_size,
    code_count,
    complement,
    distribution,
    enumerate_codes,
    equidistributed,
    from_ordered_bipartition,
    gf_bipartitional,
    gf_sorting,
    graphical_inversions,
    graphical_major_index,
    graphical_sorting_index,
    graphical_sorting_trace,
    is_bipartitional,
    is_essentially_bipartitional,
    q_multinomial,
    rearrangement_class,
    rearrangement_class_range,
    relation_from_mask,
    to_ordered_bipartition,
    unrank_word,
)
from mahonian.bcode import _block_structure
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


def naive_sort(letters, rule):
    """Reference selection sort: for i = m down to 1, scan the prefix for its
    largest letter and move the copy the rule picks to position i, each
    letter carrying its original position as a label.  Returns the steps as
    (j, i, letter, passed letters) and the final letters."""
    work = [(x, label) for label, x in enumerate(letters)]
    steps = []
    for i in range(len(work) - 1, -1, -1):
        largest = max(x for x, _ in work[: i + 1])
        copies = [h for h in range(i + 1) if work[h][0] == largest]
        if rule == TIE_RIGHTMOST:
            j = copies[-1]
        elif rule == TIE_LEFTMOST:
            j = copies[0]
        else:
            j = max(copies, key=lambda h: work[h][1])
        steps.append((j + 1, i + 1, largest, [y for y, _ in work[j + 1 : i + 1]]))
        work[j], work[i] = work[i], work[j]
    return steps, tuple(x for x, _ in work)


@settings(max_examples=300, deadline=None)
@given(words_and_masks())
@example((2, [1, 2, 1, 1], 0b0111))
def test_sort_matches_the_naive_sort(case):
    """Trace, index and profile read the same moves as the naive sort; under
    copy-label-max this pins the mover to the copy a stable sort of the
    positions by letter names."""
    n, letters, mask = case
    relation = relation_from_mask(n, mask)
    for rule in TIE_RULES:
        steps, final = naive_sort(letters, rule)
        expected = [
            (j, i, x, sum((x, y) in relation.edges for y in passed))
            for j, i, x, passed in steps
        ]
        trace = graphical_sorting_trace(relation, letters, rule)
        got = [
            (s.mover_position, s.target_position, s.letter, s.contribution)
            for s in trace.steps
        ]
        assert got == expected and trace.final_letters == final, rule
        assert graphical_sorting_index(relation, letters, rule) == trace.total
        profile = [0] * (n * n)
        for _, _, x, passed in steps:
            for y in passed:
                profile[(x - 1) * n + y - 1] += 1
        assert sorting_profile(n, letters, rule) == tuple(profile), rule


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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.one_of(
            st.integers(0, (1 << (n * n)) - 1).map(lambda m: relation_from_mask(n, m)),
            near_bipartitional(n),
        )
    )
)
# an unflagged block right before an underlined one: the only two blocks
# that share an out-row, told apart by the loops
@example(from_ordered_bipartition(OrderedBipartition(({2}, {1}), (0, 1))))
def test_reconstruction_matches_the_closure_route(relation):
    bp = to_ordered_bipartition(relation)
    assert (bp is not None) == is_bipartitional(relation)
    if bp is not None:
        assert from_ordered_bipartition(bp) == relation


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


def brute_class(alpha):
    """Every rearrangement, lexicographic, by brute force over permutations."""
    pool = [x for x in range(1, alpha.n + 1) for _ in range(alpha.count_of(x))]
    return sorted(set(permutations(pool)))


@st.composite
def class_ranges(draw):
    # at most 7 letters, so the brute-force class stays at 7! permutations
    n = draw(st.integers(1, 4))
    counts = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
            lambda counts: sum(counts) <= 7
        )
    )
    alpha = MultiplicityVector(tuple(counts))
    a = draw(st.integers(0, class_size(alpha)))
    b = draw(st.integers(a, class_size(alpha)))
    return alpha, a, b


@settings(max_examples=300, deadline=None)
@given(class_ranges())
def test_class_range_is_a_slice_of_the_class(case):
    # every enumeration, whole class or range, starts by unranking its first
    # word and then steps; the brute-force class shares neither
    alpha, a, b = case
    ranged = [word.letters for word in rearrangement_class_range(alpha, a, b)]
    assert ranged == brute_class(alpha)[a:b]


@st.composite
def qualifying_cases(draw):
    """A relation passing the sorting conditions with a thin last block, and
    a class it codes: the letters n..1 cut into consecutive descending blocks
    of one or two letters, the larger letter of a two-letter block occurring
    once and every other letter one to three times, the class at most 2,000
    words."""
    n = draw(st.integers(1, 5))
    blocks = []
    top = n
    while top:
        size = draw(st.integers(1, min(2, top)))
        blocks.append(list(range(top, top - size, -1)))
        top -= size
    thin_tops = {block[0] for block in blocks if len(block) == 2}
    counts = [1 if x in thin_tops else draw(st.integers(1, 3)) for x in range(1, n + 1)]
    while class_size(MultiplicityVector(tuple(counts))) > 2000:
        counts[counts.index(max(counts))] -= 1
    relation = from_ordered_bipartition(OrderedBipartition(blocks, [0] * len(blocks)))
    return relation, MultiplicityVector(tuple(counts))


@settings(max_examples=100, deadline=None)
@given(qualifying_cases(), st.data())
def test_bcode_round_trips_on_qualifying_relations(case, data):
    relation, alpha = case
    size = class_size(alpha)
    assert code_count(relation, alpha) == size
    ranks = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=5))
    for rank in ranks:
        word = unrank_word(alpha, rank)
        code = bcode_encode(relation, word)
        assert bcode_decode(relation, alpha, code) == word
        assert code.total() == graphical_sorting_index(
            relation, word, tie_rule=TIE_RIGHTMOST
        )
    codes = list(enumerate_codes(relation, alpha))
    assert len(codes) == size
    for code in data.draw(st.lists(st.sampled_from(codes), min_size=1, max_size=5)):
        assert bcode_encode(relation, bcode_decode(relation, alpha, code)) == code


@settings(max_examples=100, deadline=None)
@given(qualifying_cases())
def test_cached_plan_matches_a_fresh_derivation(case):
    relation, alpha = case
    plan = _block_structure(relation, alpha)
    assert plan == _block_structure.__wrapped__(relation, alpha)
    assert _block_structure(relation, alpha) is plan
    bp, info, block_of, suffix = plan
    assert all(x in bp.blocks[block_of[x]] for x in range(1, alpha.n + 1))
    masses = [block.mass for block in info]
    assert list(suffix) == [sum(masses[j + 1:]) for j in range(len(info))]


@st.composite
def gray_walks(draw):
    """A class with n <= 3 and counts <= 2, the sorting index's tie rule (None
    for the inversion and major-index pair alone), and a run of Gray-code
    ranks."""
    n = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rule = draw(st.one_of(st.none(), st.sampled_from(TIE_RULES)))
    start = draw(st.integers(0, (1 << (n * n)) - 1))
    stop = draw(st.integers(start + 1, min(start + 40, 1 << (n * n))))
    return MultiplicityVector(tuple(counts)), rule, start, stop


@settings(max_examples=200, deadline=None)
@given(gray_walks())
# every relation on two letters, equidistributed ones included
@example((MultiplicityVector((1, 2)), None, 0, 16))
@example((MultiplicityVector((1, 2)), TIE_RIGHTMOST, 0, 16))
def test_moment_walk_tracks_the_second_moment_gap(case):
    """The form tracked step by step equals sum(inv^2) - sum(maj^2) over the
    class, computed with the public kernels; with the sorting index too, it
    vanishes exactly when both gaps to inv do."""
    alpha, rule, start, stop = case
    n = alpha.n
    words = [word.letters for word in rearrangement_class(alpha)]
    builders = [inversion_profile, major_profile]
    kernels = [graphical_inversions, graphical_major_index]
    if rule is not None:
        builders.append(partial(sorting_profile, tie_rule=rule))
        kernels.append(partial(graphical_sorting_index, tie_rule=rule))
    tallies = [Counter(build(n, letters) for letters in words) for build in builders]
    form = oracle._moment_form(tallies, n * n)
    walked = list(oracle._moment_walk(form, list(range(n * n)), start, stop))
    assert [mask for mask, _ in walked] == [k ^ (k >> 1) for k in range(start, stop)]
    for mask, gap in walked:
        relation = relation_from_mask(n, mask)
        squares = [sum(kernel(relation, w) ** 2 for w in words) for kernel in kernels]
        gaps = [squares[0] - other for other in squares[1:]]
        if rule is None:
            assert gap == gaps[0]
        else:
            assert (gap == 0) == (gaps == [0, 0])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.integers(0, (1 << (n * n)) - 1).map(lambda m: relation_from_mask(n, m)),
            st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
                lambda counts: MultiplicityVector(tuple(counts))
            ),
        )
    )
)
def test_complement_keeps_inv_maj_equidistribution(case):
    """inv and maj are equidistributed under U exactly when they are under its
    complement, and the generated essential set is closed under complement."""
    relation, alpha = case
    stats = ["inv-graphical", "maj-graphical"]
    assert equidistributed(stats, alpha, relation) == equidistributed(
        stats, alpha, complement(relation)
    )
    full = (1 << (alpha.n * alpha.n)) - 1
    essential = oracle._essential_masks(alpha)
    assert {mask ^ full for mask in essential} == essential


@st.composite
def dp_cases(draw, top=3):
    """A relation on n <= 4 letters from a random mask, and a class with
    counts 0..top, cut down (largest count first) to at most 3,000 words so
    the word-by-word reference stays quick."""
    n = draw(st.integers(1, 4))
    relation = relation_from_mask(n, draw(st.integers(0, (1 << (n * n)) - 1)))
    counts = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    while class_size(MultiplicityVector(tuple(counts))) > 3000:
        counts[counts.index(max(counts))] -= 1
    return relation, MultiplicityVector(tuple(counts))


@settings(max_examples=300, deadline=None)
@given(dp_cases())
def test_distribution_dp_matches_the_scored_class(case):
    relation, alpha = case
    words = list(rearrangement_class(alpha))
    for stat, kernel in (
        ("inv-graphical", graphical_inversions),
        ("maj-graphical", graphical_major_index),
    ):
        values = Counter(kernel(relation, word) for word in words)
        expected = QPolynomial([values[k] for k in range(max(values) + 1)])
        assert distribution(stat, alpha, relation) == expected, stat


@st.composite
def bipartitions_and_classes(draw):
    """An ordered bipartition of n <= 6 letters with random underlines, and a
    class with counts 0..2."""
    n = draw(st.integers(1, 6))
    letters = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0] + cuts + [n]
    blocks = [frozenset(letters[a:b]) for a, b in zip(bounds, bounds[1:])]
    flags = draw(st.lists(st.integers(0, 1), min_size=len(blocks), max_size=len(blocks)))
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return OrderedBipartition(tuple(blocks), tuple(flags)), MultiplicityVector(tuple(counts))


@settings(max_examples=100, deadline=None)
@given(bipartitions_and_classes())
def test_distribution_dp_matches_the_closed_form(case):
    bp, alpha = case
    relation = from_ordered_bipartition(bp)
    closed = gf_bipartitional(alpha, bp)
    for stat in ("inv-graphical", "maj-graphical"):
        assert distribution(stat, alpha, relation, max_class=None) == closed, stat


@settings(max_examples=300, deadline=None)
@given(st.one_of(dp_cases(), dp_cases(top=1)))
def test_unsorting_matches_the_sorted_class(case):
    """The sor distribution built by undoing the sort equals the class sorted
    word by word: under rightmost and leftmost always, and under every rule
    when no letter repeats."""
    relation, alpha = case
    words = list(rearrangement_class(alpha))
    rules = TIE_RULES if max(alpha.counts) <= 1 else (TIE_RIGHTMOST, TIE_LEFTMOST)
    for rule in rules:
        values = Counter(graphical_sorting_index(relation, word, rule) for word in words)
        expected = QPolynomial([values[k] for k in range(max(values) + 1)])
        got = distribution("sor-graphical", alpha, relation, tie_rule=rule)
        assert got == expected, rule


@settings(max_examples=100, deadline=None)
@given(qualifying_cases())
def test_unsorting_matches_the_closed_form(case):
    relation, alpha = case
    closed = gf_sorting(alpha, to_ordered_bipartition(relation))
    got = distribution("sor-graphical", alpha, relation, tie_rule=TIE_RIGHTMOST)
    assert got == closed


@st.composite
def small_part_lists(draw):
    """One to 6 parts of total mass at most 30."""
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        parts.append(draw(st.integers(0, 30 - sum(parts))))
    return tuple(parts)


@settings(max_examples=60, deadline=None)
@given(small_part_lists())
@example((6, 5, 4, 3, 2, 1))
@example((0, 30))
@example((1,) * 6)
def test_q_multinomial_matches_box_products_and_the_dp(parts):
    """The product formula equals the telescoping product of box-partition
    counts [s + p; p] = box(s, p), multiplied as polynomials, and the
    inversion distribution the transfer-matrix DP builds."""
    product = QPolynomial.one()
    mass = 0
    for p in parts:
        product = product * box_partition_counts(mass, p)
        mass += p
    got = q_multinomial(parts)
    assert got == product
    assert got == distribution("inv", MultiplicityVector(parts), max_class=None)
