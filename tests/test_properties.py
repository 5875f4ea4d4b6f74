"""Property tests: profile linearity, the selection sort against a naive
one written from its definition, Theorem 2 on 3 letters scored through
that naive sort under each tie rule, the graphical Foata transformation
carrying maj' to inv' word by word, bipartition reconstruction against the
closure route, the one-shot essential predicate against the exhaustive
loop-assignment scan it replaced, ranged class enumeration against a
brute-force class, the block code round trip on random qualifying
relations, the sweep's incrementally tracked second-moment form against
moments computed directly, the complement identity, the inv/maj
distribution DP and the undone sort behind the sor distribution against the
class scored word by word and against the closed forms, the copy-label-max
prefix DP against the words of a shard of its top-letter placements
sorted one by one, its walk of standardized permutations against the
ranged class, and the Gaussian
multinomial's product formula against box-partition counts and the DP."""

from collections import Counter
from functools import cache, partial
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mahonian.oracle as oracle

from mahonian import (
    BCode,
    EssentialWitness,
    InvalidCode,
    MultiplicityVector,
    OrderedBipartition,
    QPolynomial,
    Relation,
    TIE_COPY_LABEL_MAX,
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
    effective_core,
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
    relation_to_mask,
    satisfies_sorting_conditions,
    to_ordered_bipartition,
    unrank_word,
    verify_theorem2,
)
from mahonian.bcode import _block_structure
from mahonian.relations import _sorting_bipartition
from mahonian.statistics import _inversion_profile, _major_profile, _sorting_profile
from mahonian.words import _standardized_class


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

    assert summed(_inversion_profile(n, letters)) == graphical_inversions(
        relation, letters
    )
    assert summed(_major_profile(n, letters)) == graphical_major_index(
        relation, letters
    )
    for rule in TIE_RULES:
        assert summed(_sorting_profile(n, letters, rule)) == graphical_sorting_index(
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
        assert _sorting_profile(n, letters, rule) == tuple(profile), rule


# Theorem 2's disagreements over the 512 relations on 3 letters, by tie rule
TIE_RULE_DISAGREEMENTS = {
    (2, 2, 2): {TIE_COPY_LABEL_MAX: 1, TIE_LEFTMOST: 8, TIE_RIGHTMOST: 0},
    (1, 2, 2): {TIE_COPY_LABEL_MAX: 2, TIE_LEFTMOST: 8, TIE_RIGHTMOST: 0},
}


@pytest.mark.parametrize("counts", sorted(TIE_RULE_DISAGREEMENTS), ids=str)
def test_only_the_rightmost_tie_rule_keeps_theorem2(counts):
    """inv', maj' and sor' scored over the brute-force class with no library
    statistic, sor' through the naive sort under each rule: only rightmost
    never disagrees with the sorting conditions.  Each word is scored once
    per statistic into counts per pair (x, y), at relation_from_mask's bit
    (x - 1)*3 + y - 1, so a relation's value is a sum over its bits."""
    alpha = MultiplicityVector(counts)
    words = brute_class(alpha)

    def pair_counts(weighted_pairs):
        row = [0] * 9
        for x, y, weight in weighted_pairs:
            row[(x - 1) * 3 + y - 1] += weight
        return row

    def inv(w):
        m = len(w)
        return pair_counts((w[i], w[j], 1) for i in range(m) for j in range(i + 1, m))

    def maj(w):
        return pair_counts((w[i], w[i + 1], i + 1) for i in range(len(w) - 1))

    def sor(w, rule):
        steps, _ = naive_sort(w, rule)
        return pair_counts((x, y, 1) for _, _, x, passed in steps for y in passed)

    columns = {"inv": list(map(inv, words)), "maj": list(map(maj, words))} | {
        rule: [sor(w, rule) for w in words] for rule in TIE_RULES
    }
    disagreeing = {rule: [] for rule in TIE_RULES}
    for mask in range(1 << 9):
        bits = [b for b in range(9) if mask >> b & 1]
        histograms = {
            key: Counter(sum(row[b] for b in bits) for row in rows)
            for key, rows in columns.items()
        }
        conditions = satisfies_sorting_conditions(relation_from_mask(3, mask), alpha)[0]
        for rule in TIE_RULES:
            if conditions != (histograms["inv"] == histograms["maj"] == histograms[rule]):
                disagreeing[rule].append(mask)
    assert {rule: len(masks) for rule, masks in disagreeing.items()} == (
        TIE_RULE_DISAGREEMENTS[counts]
    )
    for rule in TIE_RULES:
        report = verify_theorem2(3, alpha, tie_rule=rule)
        masks = [relation_to_mask(d.relation) for d in report.disagreements]
        assert masks == disagreeing[rule], rule


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
def ordered_bipartitions(draw, n):
    """The letters 1..n in any order, cut into blocks, each block underlined
    or not."""
    letters = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0] + cuts + [n]
    blocks = [letters[a:b] for a, b in zip(bounds, bounds[1:])]
    flags = draw(st.lists(st.integers(0, 1), min_size=len(blocks), max_size=len(blocks)))
    return OrderedBipartition(blocks, flags)


@st.composite
def near_bipartitional(draw, n):
    """A bipartitional relation with some loops toggled and, sometimes, one
    more pair toggled: most of these are essentially bipartitional for some
    classes and not for others."""
    edges = set(from_ordered_bipartition(draw(ordered_bipartitions(n))).edges)
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


def foata(relation, letters):
    """The graphical Foata transformation (Foata and Zeilberger, *Graphical
    major indices*, 1996): γ(a) = a, and γ(v·a) takes g = γ(v), cuts it
    after each letter b with (b, a) in U when g's last letter c has (c, a)
    in U, else after each b with (b, a) not in U, moves the last letter of
    each compartment to its front and appends a."""
    edges = relation.edges
    g = []
    for a in letters:
        if g:
            inside = (g[-1], a) in edges
            compartments, start = [], 0
            for h, b in enumerate(g):
                if ((b, a) in edges) == inside:
                    compartments.append(g[start : h + 1])
                    start = h + 1
            g = [x for c in compartments for x in (c[-1], *c[:-1])]
        g.append(a)
    return tuple(g)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            ordered_bipartitions(n),
            st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(
                lambda counts: sum(counts) <= 6
            ),
        )
    )
)
def test_foata_carries_maj_to_inv_under_a_bipartition(case):
    """Theorem 1's "if" direction word by word: for a bipartitional U,
    maj'_U(w) = inv'_U(γ_U(w)), and γ_U permutes the class."""
    bp, counts = case
    relation = from_ordered_bipartition(bp)
    words = brute_class(MultiplicityVector(tuple(counts)))
    images = [foata(relation, w) for w in words]
    assert sorted(images) == words
    for w, image in zip(words, images):
        assert graphical_major_index(relation, w) == graphical_inversions(relation, image)


def test_foata_of_the_witness_carries_maj_to_inv():
    """For every relation U on 3 letters and class with counts 0..2 that has
    an essential witness, γ of the witness's bipartition permutes the class
    and carries maj'_U to inv'_U: a loop it adds or drops is on a letter of
    multiplicity 1, which U never pairs.  Control: γ_U scored with U itself
    breaks the identity on 352 of the 512 relations on (1, 1, 1)."""
    pairs = 0
    for counts in product(range(3), repeat=3):
        alpha = MultiplicityVector(counts)
        words = brute_class(alpha)
        for mask in range(1 << 9):
            relation = relation_from_mask(3, mask)
            witness = is_essentially_bipartitional(relation, alpha)
            if witness is None:
                continue
            pairs += 1
            adjusted = from_ordered_bipartition(witness.bipartition)
            images = [foata(adjusted, w) for w in words]
            assert sorted(images) == words, (counts, mask)
            for w, image in zip(words, images):
                assert graphical_major_index(relation, w) == graphical_inversions(
                    relation, image
                ), (counts, mask, w)
    assert pairs == 2576
    words = brute_class(MultiplicityVector((1, 1, 1)))
    broken = 0
    for mask in range(1 << 9):
        relation = relation_from_mask(3, mask)
        broken += any(
            graphical_major_index(relation, w) != graphical_inversions(relation, foata(relation, w))
            for w in words
        )
    assert broken == 352


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
    words.  Some letters occurring once may carry a loop: the only edges
    outside the bipartition that the conditions allow."""
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
    singles = [x for x in range(1, n + 1) if counts[x - 1] == 1]
    loops = draw(st.sets(st.sampled_from(singles))) if singles else set()
    relation = Relation(n, relation.edges | {(x, x) for x in loops})
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


def bipartition_sizes(relation, alpha):
    """Each block's letters, ascending, and its (mass, bound): the mass of
    its letters and of the blocks after it, read off the sorting conditions'
    bipartition rather than the cached code plan."""
    bp, _ = _sorting_bipartition(relation, alpha)
    blocks = [sorted(block) for block in bp.blocks]
    masses = [sum(alpha.count_of(x) for x in letters) for letters in blocks]
    return blocks, [(m, sum(masses[j + 1:])) for j, m in enumerate(masses)]


def first_code_fault(blocks, sizes, code):
    """The message of the first rule a code breaks, None for a valid code:
    the checks and their order as bcode_decode has always made them, with
    each rule spelled out term by term."""
    if len(code.partitions) != len(blocks):
        return f"expected {len(blocks)} partitions, got {len(code.partitions)}"
    for j, (part, letters, (mass, bound)) in enumerate(zip(code.partitions, blocks, sizes)):
        label = j + 1
        if len(part) != mass:
            return f"partition {label} must have {mass} parts, got {len(part)}"
        if any(p < 0 for p in part):
            return f"partition {label} has a negative part"
        if any(part[t] < part[t + 1] for t in range(len(part) - 1)):
            return f"partition {label} is not nonincreasing: {part}"
        if part and part[0] > bound:
            return f"partition {label} has part {part[0]} exceeding the bound {bound}"
        marker = code.markers[j]
        if len(letters) == 2:
            if not 1 <= marker <= mass:
                return f"marker {label} must be between 1 and {mass}, got {marker}"
        elif marker != 0:
            return f"marker {label} must be 0 for a one-letter block, got {marker}"
    return None


WORKED_U = from_ordered_bipartition(
    OrderedBipartition((frozenset({4, 5}), frozenset({3}), frozenset({1, 2})), (0, 0, 0))
)
WORKED_ALPHA = MultiplicityVector((2, 1, 1, 3, 1))


@cache
def worked_codes():
    return list(enumerate_codes(WORKED_U, WORKED_ALPHA))


@st.composite
def perturbed_codes(draw):
    """A valid code of the worked class with one to three edits: a part
    dropped, appended or changed, or a marker changed."""
    codes = worked_codes()
    code = codes[draw(st.integers(0, len(codes) - 1))]
    parts = [list(part) for part in code.partitions]
    markers = list(code.markers)
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, len(parts) - 1))
        edit = draw(st.sampled_from(["drop", "append", "part", "marker"]))
        if edit == "drop" and parts[j]:
            parts[j].pop(draw(st.integers(0, len(parts[j]) - 1)))
        elif edit == "append":
            parts[j].append(draw(st.integers(-2, 7)))
        elif edit == "part" and parts[j]:
            parts[j][draw(st.integers(0, len(parts[j]) - 1))] = draw(st.integers(-2, 7))
        elif edit == "marker":
            markers[j] = draw(st.integers(-1, 6))
    return BCode(parts, markers)


@settings(max_examples=300, deadline=None)
@given(perturbed_codes())
def test_decode_reports_the_first_broken_code_rule(code):
    fault = first_code_fault(*bipartition_sizes(WORKED_U, WORKED_ALPHA), code)
    if fault is None:
        word = bcode_decode(WORKED_U, WORKED_ALPHA, code)
        assert bcode_encode(WORKED_U, word) == code
    else:
        with pytest.raises(InvalidCode) as err:
            bcode_decode(WORKED_U, WORKED_ALPHA, code)
        assert str(err.value) == fault


@settings(max_examples=100, deadline=None)
@given(qualifying_cases())
def test_cached_plan_matches_a_fresh_derivation(case):
    relation, alpha = case
    plan = _block_structure(relation, alpha)
    assert plan == _block_structure.__wrapped__(relation, alpha)
    assert _block_structure(relation, alpha) is plan
    blocks, sizes = bipartition_sizes(relation, alpha)
    # one record per block: its letters, ascending, low's copies, and sizes
    assert [[low] + [top] * (top > 0) for low, top, *_ in plan] == blocks
    assert all(top == 0 or low < top for low, top, *_ in plan)
    assert sorted(x for letters in blocks for x in letters) == list(range(1, alpha.n + 1))
    assert [copies for _, _, copies, _, _ in plan] == [alpha.count_of(low) for low, *_ in plan]
    assert all(top == 0 or alpha.count_of(top) == 1 for _, top, *_ in plan)
    assert [(mass, bound) for *_, mass, bound in plan] == sizes


@st.composite
def gray_walks(draw):
    """A class with n <= 3 and counts <= 2, the sorting index's tie rule (None
    for the inversion and major-index pair alone), the number of low bits,
    and a run of Gray-code ranks of the high bits covering at most 40
    masks."""
    n = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rule = draw(st.one_of(st.none(), st.sampled_from(TIE_RULES)))
    low = draw(st.integers(0, min(n * n, 5)))
    ranks = 1 << (n * n - low)
    start = draw(st.integers(0, ranks - 1))
    stop = draw(st.integers(start + 1, min(start + max(1, 40 >> low), ranks)))
    return MultiplicityVector(tuple(counts)), rule, low, start, stop


@settings(max_examples=200, deadline=None)
@given(gray_walks())
# every relation on two letters, equidistributed ones included
@example((MultiplicityVector((1, 2)), None, 0, 0, 16))
@example((MultiplicityVector((1, 2)), TIE_RIGHTMOST, 0, 0, 16))
@example((MultiplicityVector((1, 2)), None, 2, 0, 4))
def test_moment_walk_tracks_the_second_moment_gap(case):
    """The moment form u^T D u equals sum(inv^2) - sum(maj^2) over the class,
    computed with the public kernels, and the walk over the ranks returns
    exactly the masks where it vanishes; with the sorting index too, those
    are the masks where both gaps to inv vanish."""
    alpha, rule, low, start, stop = case
    n = alpha.n
    words = [word.letters for word in rearrangement_class(alpha)]
    builders = [_inversion_profile, _major_profile]
    kernels = [graphical_inversions, graphical_major_index]
    if rule is not None:
        builders.append(partial(_sorting_profile, tie_rule=rule))
        kernels.append(partial(graphical_sorting_index, tie_rule=rule))
    stats = [list(zip(*(build(n, letters) for letters in words))) for build in builders]
    form = oracle._moment_form(stats)
    walked = list(oracle._zero_forms(form, low, start, stop))
    covered = [
        m | (k ^ (k >> 1)) << low for k in range(start, stop) for m in range(1 << low)
    ]
    assert len(walked) == len(set(walked)) and set(walked) <= set(covered)
    for mask in covered:
        relation = relation_from_mask(n, mask)
        squares = [sum(kernel(relation, w) ** 2 for w in words) for kernel in kernels]
        gaps = [squares[0] - other for other in squares[1:]]
        if rule is None:
            bits = [i for i in range(n * n) if mask >> i & 1]
            assert sum(form[i][j] for i in bits for j in bits) == gaps[0]
        assert (mask in walked) == (gaps == [0] * len(gaps))


@st.composite
def sliced_forms(draw):
    """A random symmetric integer matrix with at most 14 rows, some entries
    past 2^64, the number of low bits (0, 1, 3 or all of them, capped by
    the size) and cut points splitting the Gray ranks of the high bits."""
    size = draw(st.integers(0, 14))
    scales = st.sampled_from([1, 1, 1, 3, 1 << 70])
    form = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = draw(st.integers(-2, 2)) * draw(scales)
            form[i][j] = form[j][i] = value
    low = min(size, draw(st.sampled_from([0, 1, 3, size, 14])))
    ranks = 1 << (size - low)
    cuts = sorted(draw(st.lists(st.integers(0, ranks), max_size=3)))
    return form, low, [0, *cuts, ranks]


@settings(max_examples=80, deadline=None)
@given(sliced_forms())
@example(([], 0, [0, 1]))
@example(([[1 << 70, -(1 << 70)], [-(1 << 70), 1 << 70]], 1, [0, 1, 2]))
@example(([[i * j % 3 - 1 for j in range(14)] for i in range(14)], 3, [0, 700, 2048]))
def test_sliced_zero_set_matches_the_naive_form(case):
    """The packed walk returns each mask u with u^T D u = 0 once, read off
    the whole range of high ranks or off its pieces joined, for any number
    of low bits and for entries that need a bias past 64 bits."""
    form, low, cuts = case
    size = len(form)
    naive = set()
    for u in range(1 << size):
        bits = [i for i in range(size) if u >> i & 1]
        if sum(form[i][j] for i in bits for j in bits) == 0:
            naive.add(u)
    pieces = [
        u
        for start, stop in zip(cuts, cuts[1:])
        for u in oracle._zero_forms(form, low, start, stop)
    ]
    assert len(pieces) == len(naive) and set(pieces) == naive


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
    # the closed form reads the bipartition, which the class's loops hide
    relation, alpha = case
    closed = gf_sorting(alpha, to_ordered_bipartition(effective_core(relation, alpha)))
    got = distribution("sor-graphical", alpha, relation, tie_rule=TIE_RIGHTMOST)
    assert got == closed


@st.composite
def sorting_classes(draw):
    """A relation on n <= 4 letters from a random mask and a class with
    counts 0..3 and at most 9 letters."""
    n = draw(st.integers(1, 4))
    relation = relation_from_mask(n, draw(st.integers(0, (1 << (n * n)) - 1)))
    counts = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
            lambda counts: sum(counts) <= 9
        )
    )
    return relation, MultiplicityVector(tuple(counts))


def top_copies(alpha):
    """The largest letter present (0 in an empty class) and its count."""
    top = max((x for x, c in enumerate(alpha.counts, 1) if c), default=0)
    return top, alpha.counts[top - 1] if top else 0


@st.composite
def placement_shards(draw):
    """A relation and a class as sorting_classes draws them, and a range
    [a, b) of the combination ranks of the positions its top letter's
    copies may take."""
    relation, alpha = draw(sorting_classes())
    placements = comb(alpha.total, top_copies(alpha)[1])
    a = draw(st.integers(0, placements))
    b = draw(st.integers(a, placements))
    return relation, alpha, a, b


@settings(max_examples=150, deadline=None)
@given(placement_shards())
def test_prefix_dp_matches_the_sorted_shard(case):
    """The copy-label-max worker's DP over sort prefixes, on any shard of
    the placements of the top letter's copies, packs the same lanes as the
    public kernel summed over the words whose top-letter positions have a
    combination rank in the shard."""
    relation, alpha, a, b = case
    width = class_size(alpha).bit_length()
    top, copies = top_copies(alpha)
    ranks = {p: k for k, p in enumerate(combinations(range(alpha.total), copies))}
    expected = sum(
        1 << graphical_sorting_index(relation, word, TIE_COPY_LABEL_MAX) * width
        for word in rearrangement_class(alpha)
        if a <= ranks[tuple(h for h, x in enumerate(word.letters) if x == top)] < b
    )
    assert oracle._sorting_worker((relation.edges, alpha, width, a, b)) == expected


@settings(max_examples=150, deadline=None)
@given(sorting_classes())
@example((relation_from_mask(2, 0), MultiplicityVector((0, 0))))
@example((relation_from_mask(3, 0), MultiplicityVector((2, 0, 1))))
def test_standardized_walk_matches_the_ranged_class(case):
    """The in-place walk of standardized permutations yields, from the
    sorted word on, the standardization of each word of the class."""
    _, alpha = case

    def standardized(letters):
        return tuple(
            sum(y < x for y in letters) + letters[:h].count(x) for h, x in enumerate(letters)
        )

    expected = [standardized(w.letters) for w in rearrangement_class(alpha)]
    assert [tuple(p) for p in _standardized_class(alpha)] == expected


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
