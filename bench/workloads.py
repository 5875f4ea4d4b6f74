"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations (one timed
public-API call each) and knows how to check every output.  Inputs come
only from the seed; the library receives nothing else.  Checks prefer an
independent route (closed forms, the complement identity, round trips,
counts); where the library has none, outputs are compared with values
recorded at a trusted commit in ``expected.json``.

The library is passed in as a module and every call looks its function up
at call time, so a tracer laid over the package sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from time import perf_counter as _clock
from typing import Callable

SIZES = ("full", "tiny")

# Input shapes per size.  "tiny" is for the self-test only.
#
# Calls are kept to tens of milliseconds so that every one repeats many
# times in a run: on a shared machine only the shortest of many repeats
# times a call steadily.  The bipartition's block sizes and flags are fixed
# and the seed places the letters: every letter of the repeated class has
# the same multiplicity, so each seed's relation costs the kernels the same.
# The permutation class draws from a recorded pool whose relations share
# their counts of descending, ascending and loop edges, for the same reason.
DIST_LARGE = {
    "full": {"repeated": (2, 2, 2, 2), "blocks": (2, 1, 1), "flags": (1, 0, 0),
             "permutation_n": 7, "pool_edges": (10, 10, 3)},
    "tiny": {"repeated": (2, 2, 2), "blocks": (2, 1), "flags": (1, 0),
             "permutation_n": 4, "pool_edges": (3, 3, 2)},
}
# Sweeps: alphabet size, the timed classes, and one class whose default-rule
# verify_theorem2 is run once per run, untimed, to keep a known defect in
# view (its sweep takes too long to time steadily).
SWEEP = {
    "full": (3, ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 2)), (2, 2, 2)),
    "tiny": (2, ((1, 1), (2, 1), (2, 2)), (1, 2)),
}
CHAIN_BLOCKS = ((4, 5), (3,), (1, 2))
BCODE_ALPHA = {"full": (2, 1, 1, 3, 1), "tiny": (1, 1, 1, 2, 1)}
# Words and codes of the worked class that one run round-trips, each.
BCODE_SAMPLE = {"full": 500, "tiny": 60}
TIE_FLAGS = (None, "copy-label", "leftmost", "rightmost")


@dataclass
class Op:
    """One timed call: ``run`` makes it, ``check`` judges its output."""

    kind: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], bool]


def lazy(compute):
    """Memoise a zero-argument function, so a reference value used by the
    checks is computed once, outside the timed region."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


def percentile(samples, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def class_words(counts) -> int:
    """Class size by the multinomial formula, independent of the library."""
    size, partial = 1, 0
    for a in counts:
        partial += a
        size *= math.comb(partial, a)
    return size


def reversed_coeffs(coeffs, degree):
    """Coefficients of q^degree * P(1/q): the complement identity maps the
    distribution of a statistic under U to this one under its complement."""
    padded = list(coeffs) + [0] * (degree + 1 - len(coeffs))
    out = padded[::-1]
    while out and out[-1] == 0:
        out.pop()
    return out


def random_blocks(rng, letters, count):
    """Cut a shuffled copy of letters into count nonempty blocks."""
    letters = list(letters)
    rng.shuffle(letters)
    cuts = sorted(rng.sample(range(1, len(letters)), count - 1))
    bounds = [0] + cuts + [len(letters)]
    return [frozenset(letters[a:b]) for a, b in zip(bounds, bounds[1:])]


def random_edges(rng, n, density=0.4):
    pairs = [
        (x, y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if rng.random() < density
    ]
    return pairs or [(n, 1)]


def edges_text(pairs) -> str:
    return ";".join(f"{x} {y}" for x, y in sorted(pairs))


class Workload:
    name = ""

    def __init__(self, lib, seed: int, size: str, expected: dict):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.lib = lib
        self.size = size
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []

    def warm_up(self) -> None:
        """Run each operation kind once on its smallest input."""
        seen = set()
        for op in sorted(self.ops, key=lambda op: op.items):
            if op.kind not in seen:
                seen.add(op.kind)
                op.run()

    def check_pass(self, outputs) -> int:
        """Checks over a whole pass; returns the number that failed."""
        return 0

    def sizes(self) -> dict:
        return {}

    def detail(self, records) -> dict:
        """Workload-specific metrics, by name, from (op, best seconds)
        records of the untraced passes."""
        return {}

    def facts(self) -> dict:
        """Outputs worth printing beside the metrics, such as known defects."""
        return {}

    @staticmethod
    def rate(records, prefix) -> float:
        """Items per second over the operations whose kind has this prefix."""
        items = seconds = 0.0
        for op, elapsed in records:
            if op.kind.startswith(prefix):
                items += op.items
                seconds += elapsed
        return items / seconds if seconds else 0.0


# ------------------------------------------------------------------ dist-large


class DistLarge(Workload):
    """``distribution`` over big classes: words with repeated letters and
    permutations, every statistic, all three tie rules."""

    name = "dist-large"

    def __init__(self, lib, seed, size, expected):
        super().__init__(lib, seed, size, expected)
        record = expected["dist-large"][size]
        shape = DIST_LARGE[size]
        rep = lib.MultiplicityVector(shape["repeated"])
        perm = lib.MultiplicityVector((1,) * shape["permutation_n"])
        n = rep.n

        # seeded bipartitional relation with an underlined block
        letters = list(range(1, n + 1))
        self.rng.shuffle(letters)
        blocks = []
        for width in shape["blocks"]:
            blocks.append(frozenset(letters[:width]))
            letters = letters[width:]
        bp = lib.OrderedBipartition(tuple(blocks), shape["flags"])
        u_bp = lib.from_ordered_bipartition(bp)
        nat = lib.natural_order(n)

        # seeded non-bipartitional relation on the permutations, drawn from
        # the recorded pool so its outputs have recorded values
        mask = self.rng.choice(sorted(record["pool"], key=int))
        pooled = record["pool"][mask]
        u_nb = lib.relation_from_mask(perm.n, int(mask))
        self.inputs = {
            "repeated_alpha": list(rep.counts),
            "repeated_words": class_words(rep.counts),
            "bipartition": bp.render(),
            "permutation_n": perm.n,
            "permutation_words": class_words(perm.counts),
            "permutation_relation_mask": int(mask),
        }

        def dist(stat, alpha, relation, rule=None):
            extra = {} if rule is None else {"tie_rule": rule}
            return lambda: self.lib.distribution(stat, alpha, relation, jobs=1, **extra)

        closed = lazy(lambda: lib.gf_bipartitional(rep, bp))
        sorting_form = lazy(lambda: lib.gf_sorting(rep, lib.to_ordered_bipartition(nat)))
        pairs = math.comb(perm.total, 2)
        u_nb_c = lib.complement(u_nb)
        complements = {
            base: lazy(lambda base=base: lib.distribution(
                f"{base}-graphical", perm, u_nb_c))
            for base in ("inv", "maj")
        }
        self.sorting_form = sorting_form

        for base in ("inv", "maj"):
            self.ops.append(Op(
                base, class_words(rep.counts),
                dist(f"{base}-graphical", rep, u_bp),
                lambda poly: poly == closed(),
            ))
        for rule in lib.TIE_RULES:
            recorded = record["sor_natural"][rule]

            def check(poly, recorded=recorded, rule=rule):
                ok = list(poly.coeffs) == recorded
                if rule == lib.TIE_RIGHTMOST:
                    ok = ok and poly == sorting_form()
                return ok

            self.ops.append(Op(
                f"sor-{rule}", class_words(rep.counts),
                dist("sor-graphical", rep, nat, rule), check,
            ))
        for base in ("inv", "maj"):
            def check(poly, base=base):
                mirrored = reversed_coeffs(poly.coeffs, pairs)
                return (
                    list(poly.coeffs) == pooled[base]
                    and list(complements[base]().coeffs) == mirrored
                )

            self.ops.append(Op(
                base, class_words(perm.counts),
                dist(f"{base}-graphical", perm, u_nb), check,
            ))
        self.ops.append(Op(
            f"sor-{lib.DEFAULT_TIE_RULE}", class_words(perm.counts),
            dist("sor-graphical", perm, u_nb),
            lambda poly: list(poly.coeffs) == pooled["sor"]
            and poly(1) == class_words(perm.counts),
        ))
        self.recorded_default = record["sor_natural"][lib.DEFAULT_TIE_RULE]

    def warm_up(self):
        lib = self.lib
        tiny = lib.MultiplicityVector((2, 1))
        for stat in ("inv-graphical", "maj-graphical", "sor-graphical"):
            lib.distribution(stat, tiny, lib.natural_order(2), jobs=1)

    def sizes(self):
        return self.inputs

    def detail(self, records):
        return {
            f"{base}_words_per_s": (self.rate(records, base), "1/s")
            for base in ("inv", "maj", "sor")
        }

    def facts(self):
        return {
            "known_defect_sor_default_rule_equals_gf_sorting":
                self.recorded_default == list(self.sorting_form().coeffs),
        }


# -------------------------------------------------------------------- sweep-n3


class SweepN3(Workload):
    """``verify_theorem1/2`` over every relation on three letters."""

    name = "sweep-n3"

    def __init__(self, lib, seed, size, expected):
        super().__init__(lib, seed, size, expected)
        record = expected["sweep-n3"][size]
        n, alphas, pinned = SWEEP[size]
        universe = 1 << (n * n)
        calls = [(theorem, alpha) for alpha in alphas for theorem in ("thm1", "thm2")]
        self.rng.shuffle(calls)
        self.n = n
        self.calls = calls
        self.disagreements: dict[str, int] = {}

        def recorded_for(key):
            return [tuple(row) for row in record["disagreements"][key]]

        self.pinned_key = "thm2:" + ",".join(map(str, pinned))
        self.pinned_recorded = recorded_for(self.pinned_key)
        self.pinned = lazy(lambda: self._found(
            lib.verify_theorem2(n, lib.MultiplicityVector(pinned), jobs=1)))

        for theorem, counts in calls:
            alpha = lib.MultiplicityVector(counts)
            key = f"{theorem}:{','.join(map(str, counts))}"
            recorded = recorded_for(key)
            spot = sorted(
                set(self.rng.sample(range(universe), 4)) | {row[0] for row in recorded}
            )
            if theorem == "thm1":
                run = lambda alpha=alpha: self.lib.verify_theorem1(n, alpha, jobs=1)
            else:
                run = lambda alpha=alpha: self.lib.verify_theorem2(n, alpha, jobs=1)
            independent = lazy(
                lambda theorem=theorem, alpha=alpha, spot=spot:
                self._spot_check(theorem, alpha, spot)
            )

            def check(report, key=key, recorded=recorded, independent=independent,
                      spot=spot):
                found = self._found(report)
                self.disagreements[key] = len(found)
                flagged = {row[0] for row in found}
                return (
                    report.relation_count == universe
                    and found == recorded
                    and independent() == [mask in flagged for mask in spot]
                )

            self.ops.append(Op(theorem, universe, run, check))

    def _found(self, report):
        return sorted(
            (self.lib.relation_to_mask(d.relation), d.predicate_holds,
             d.equidistributed_holds)
            for d in report.disagreements
        )

    def check_pass(self, outputs):
        found = self.pinned()
        self.disagreements[self.pinned_key] = len(found)
        return int(found != self.pinned_recorded)

    def _spot_check(self, theorem, alpha, masks):
        """Whether predicate and equidistribution disagree on each mask,
        from the public predicate and ``distribution`` instead of the sweep."""
        lib = self.lib
        bases = ("inv", "maj") if theorem == "thm1" else ("inv", "maj", "sor")
        verdicts = []
        for mask in masks:
            relation = lib.relation_from_mask(self.n, mask)
            polys = [
                lib.distribution(f"{base}-graphical", alpha, relation, jobs=1)
                for base in bases
            ]
            equal = all(p == polys[0] for p in polys)
            if theorem == "thm1":
                holds = lib.is_essentially_bipartitional(relation, alpha) is not None
            else:
                holds = lib.satisfies_sorting_conditions(relation, alpha)[0]
            verdicts.append(holds != equal)
        return verdicts

    def warm_up(self):
        alpha = self.lib.MultiplicityVector((1, 1))
        self.lib.verify_theorem1(2, alpha, jobs=1)
        self.lib.verify_theorem2(2, alpha, jobs=1)

    def sizes(self):
        return {
            "n": self.n,
            "relations_per_sweep": 1 << (self.n * self.n),
            "calls": [f"{t} alpha=({','.join(map(str, a))})" for t, a in self.calls],
            "untimed_check": self.pinned_key,
        }

    def detail(self, records):
        return {
            f"{theorem}_relations_per_s": (self.rate(records, theorem), "1/s")
            for theorem in ("thm1", "thm2")
        }

    def facts(self):
        return {"disagreements": self.disagreements}


# ------------------------------------------------------------- bcode-roundtrip


class BcodeRoundtrip(Workload):
    """``bcode_encode`` then ``bcode_decode`` on seeded words of the worked
    class, and decode then encode on seeded codes."""

    name = "bcode-roundtrip"

    def __init__(self, lib, seed, size, expected):
        super().__init__(lib, seed, size, expected)
        bp = lib.OrderedBipartition(
            tuple(frozenset(block) for block in CHAIN_BLOCKS), (0,) * len(CHAIN_BLOCKS)
        )
        alpha = lib.MultiplicityVector(BCODE_ALPHA[size])
        u = lib.from_ordered_bipartition(bp)
        all_words = list(lib.rearrangement_class(alpha))
        all_codes = list(lib.enumerate_codes(u, alpha))
        self.class_counts = (len(all_words), len(all_codes))
        words = self.rng.sample(all_words, BCODE_SAMPLE[size])
        codes = self.rng.sample(all_codes, BCODE_SAMPLE[size])
        self.u, self.alpha = u, alpha
        # shortest encode and decode time of each round trip, as for ops
        self.best = {"encode": {}, "decode": {}}
        self.inputs = {"alpha": list(alpha.counts), "bipartition": bp.render(),
                       "class_words": len(all_words), "class_codes": len(all_codes),
                       "words": len(words), "codes": len(codes)}
        sorting_index = {}

        def sor_of(word):
            if word.letters not in sorting_index:
                sorting_index[word.letters] = lib.graphical_sorting_index(
                    u, word, tie_rule=lib.TIE_RIGHTMOST
                )
            return sorting_index[word.letters]

        for word in words:
            self.ops.append(Op(
                "encode-decode", 1, lambda word=word: self._forward(word),
                lambda out, word=word: out[1].letters == word.letters
                and out[0].total() == sor_of(word),
            ))
        for code in codes:
            self.ops.append(Op(
                "decode-encode", 1, lambda code=code: self._reverse(code),
                lambda out, code=code: out[1] == code,
            ))
        self.code_count = lazy(lambda: lib.code_count(u, alpha))

    def _keep(self, call, key, seconds):
        best = self.best[call]
        if seconds < best.get(key, math.inf):
            best[key] = seconds

    def _forward(self, word):
        lib = self.lib
        t0 = _clock()
        code = lib.bcode_encode(self.u, word)
        t1 = _clock()
        back = lib.bcode_decode(self.u, self.alpha, code)
        t2 = _clock()
        self._keep("encode", ("word", word.letters), t1 - t0)
        self._keep("decode", ("word", word.letters), t2 - t1)
        return code, back

    def _reverse(self, code):
        lib = self.lib
        t0 = _clock()
        word = lib.bcode_decode(self.u, self.alpha, code)
        t1 = _clock()
        again = lib.bcode_encode(self.u, word)
        t2 = _clock()
        key = ("code", code.partitions, code.markers)
        self._keep("decode", key, t1 - t0)
        self._keep("encode", key, t2 - t1)
        return word, again

    def warm_up(self):
        super().warm_up()
        for best in self.best.values():
            best.clear()

    def check_pass(self, outputs):
        forward = {(out[0].partitions, out[0].markers) for op, out in outputs
                   if op.kind == "encode-decode"}
        reverse = {out[0].letters for op, out in outputs if op.kind == "decode-encode"}
        size = class_words(self.alpha.counts)
        sample = BCODE_SAMPLE[self.size]
        return (
            int(self.class_counts != (size, size) or self.code_count() != size)
            + int(len(forward) != sample)
            + int(len(reverse) != sample)
        )

    def sizes(self):
        return self.inputs

    def detail(self, records):
        out = {}
        for call in ("encode", "decode"):
            samples = list(self.best[call].values())
            out[f"{call}_p50_us"] = (1e6 * percentile(samples, 50), "us")
            out[f"{call}_p99_us"] = (1e6 * percentile(samples, 99), "us")
            out[f"{call}_samples"] = (len(samples), "count")
        return out


# --------------------------------------------------------------------- cli-mix


# Class shapes for dist requests, each at most 2,000 words.
DIST_SHAPES = (
    (1, 1, 1, 1, 1), (2, 2, 2), (2, 2, 1, 1), (3, 2, 1, 1), (1, 1, 1, 1, 1, 1),
    (2, 2, 2, 1), (3, 3, 2), (2, 2, 1, 1, 1), (3, 2, 2, 1), (4, 3, 2),
)
VERIFY_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 3), (3, 2), (3, 3))
MIX = (("stats", 40), ("gf", 15), ("check", 15), ("dist", 10),
       ("bcode", 10), ("verify", 5), ("malformed", 5))
TINY_MIX = (("stats", 8), ("gf", 3), ("check", 3), ("dist", 2),
            ("bcode", 2), ("verify", 1), ("malformed", 3))


def parse_poly_text(text: str) -> list[int]:
    """Coefficients of a rendered polynomial such as "1 + 2*q + q^3"."""
    text = text.strip()
    if text == "0":
        return []
    coeffs: dict[int, int] = {}
    for term in text.split(" + "):
        head, _, tail = term.partition("*")
        if head.startswith("q"):
            head, tail = "1", head
        if not tail:
            power = 0
        elif tail == "q":
            power = 1
        else:
            power = int(tail[2:])
        coeffs[power] = int(head)
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def poly_of_output(out: str, as_json: bool) -> list[int]:
    if as_json:
        return json.loads(out)["coeffs"]
    return parse_poly_text(out)


class CliMix(Workload):
    """Many short in-process ``run_cli`` requests with captured output."""

    name = "cli-mix"

    def __init__(self, lib, seed, size, expected):
        super().__init__(lib, seed, size, expected)
        for kind, count in (MIX if size == "full" else TINY_MIX):
            make = getattr(self, f"_{kind}")
            self.ops.extend(make(i, count) for i in range(count))
        self.rng.shuffle(self.ops)

    def _request(self, kind, argv, check) -> Op:
        """An operation running argv through run_cli; check receives the
        exit code, standard output and standard error."""

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.run_cli(list(argv))
            return code, out.getvalue(), err.getvalue()

        return Op(kind, 1, call, lambda result: check(*result))

    def sizes(self):
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return {"requests": len(self.ops), "by_kind": counts}

    def detail(self, records):
        durations = [elapsed for _, elapsed in records]
        return {
            "request_p50_ms": (1e3 * percentile(durations, 50), "ms"),
            "request_p99_ms": (1e3 * percentile(durations, 99), "ms"),
            "request_samples": (len(durations), "count"),
        }

    # Request makers.  Sizes and options follow the slot number i, so every
    # seed yields the same mix of costs; the seed picks letters, relations
    # and order.

    def _stats(self, i, count):
        lib, rng = self.lib, self.rng
        length = 1 + i % 12
        n = 2 + (i // 12) % 8
        letters = [rng.randint(1, n) for _ in range(length)]
        pairs = random_edges(rng, n)
        natural = i % 10 == 0
        if natural:
            pairs = [(x, y) for x in range(1, n + 1) for y in range(1, x)]
        argv = ["stats", "--word", "".join(map(str, letters)), "--n", str(n)]
        argv += ["--relation", "natural"] if natural else ["--edges", edges_text(pairs)]
        if i % 2:
            counts = [letters.count(x) for x in range(1, n + 1)]
            argv += ["--alpha", ",".join(map(str, counts))]
        flag = TIE_FLAGS[i % 4]
        if flag:
            argv += ["--tie-rule", flag]
        as_json = i % 3 == 0
        if as_json:
            argv += ["--format", "json"]
        single = ("inv", "des", "maj", "sor")[i % 4] if i % 7 == 0 else None
        trace = single is None and i % 5 == 0
        if single:
            argv += ["--stat", single]
        if trace:
            argv.append("--trace")
        rule = lib.TIE_RULES[(0, 0, 1, 2)[i % 4]]
        edges = set(pairs)
        relation = lib.Relation(n, frozenset(pairs))
        inv = sum(
            (letters[a], letters[b]) in edges
            for a in range(length) for b in range(a + 1, length)
        )
        descents = [
            a + 1 for a in range(length - 1) if (letters[a], letters[a + 1]) in edges
        ]
        reference = lazy(lambda: {
            "inv": inv, "des": len(descents), "maj": sum(descents),
            "sor": lib.graphical_sorting_index(relation, letters, rule),
        })

        def check(code, out, err):
            if code != 0:
                return False
            expected = reference()
            if single:
                value = json.loads(out)[single] if as_json else int(out)
                return value == expected[single]
            if as_json:
                payload = json.loads(out)
                ok = all(payload[k] == v for k, v in expected.items())
                ok = ok and payload["descent_set"] == descents
                if trace:
                    steps = payload["trace"]["steps"]
                    ok = ok and sum(s["contribution"] for s in steps) == expected["sor"]
                    ok = ok and payload["trace"]["final"] == "".join(
                        map(str, sorted(letters)))
                return ok
            lines = out.splitlines()
            values = dict(line.split() for line in lines[:4])
            ok = {k: int(v) for k, v in values.items()} == expected
            if trace:
                ok = ok and lines[-1] == "final " + "".join(map(str, sorted(letters)))
            return ok

        return self._request("stats", argv, check)

    def _gf(self, i, count):
        lib, rng = self.lib, self.rng
        mass = 20 + i * 21 // count if self.size == "full" else 6 + i
        parts = 1 + i % 4
        masses = [mass // parts + (1 if j < mass % parts else 0) for j in range(parts)]
        stat = ("inv", "maj", "sor")[i % 3]
        widths = [rng.randint(1, 2) for _ in masses]
        n = sum(widths)
        counts = [0] * n
        if stat == "sor":
            # descending blocks; a two-letter block before the last holds
            # its larger letter once
            top = n
            blocks = []
            for j, (width, block_mass) in enumerate(zip(widths, masses)):
                letters = list(range(top, top - width, -1))
                top -= width
                blocks.append(frozenset(letters))
                if width == 2 and j < len(masses) - 1:
                    counts[letters[0] - 1] = 1
                    counts[letters[1] - 1] = block_mass - 1
                else:
                    split = rng.randint(1, block_mass - 1) if width == 2 else block_mass
                    counts[letters[0] - 1] = split
                    if width == 2:
                        counts[letters[1] - 1] = block_mass - split
            flags = [0] * parts
        else:
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            blocks = []
            for width, block_mass in zip(widths, masses):
                letters, labels = labels[:width], labels[width:]
                blocks.append(frozenset(letters))
                split = rng.randint(1, block_mass - 1) if width == 2 else block_mass
                counts[letters[0] - 1] = split
                if width == 2:
                    counts[letters[1] - 1] = block_mass - split
            flags = [rng.randint(0, 1) for _ in blocks]
        bp = lib.OrderedBipartition(tuple(blocks), tuple(flags))
        alpha = lib.MultiplicityVector(tuple(counts))
        argv = ["gf", "--stat", stat, "--alpha", alpha.render()]
        if i % 2:
            argv += ["--bipartition", json.dumps(bp.to_json_dict())]
        else:
            argv += ["--edges", edges_text(lib.from_ordered_bipartition(bp).edges)]
        as_json = i % 3 == 1
        if as_json:
            argv += ["--format", "json"]
        form = lib.gf_sorting if stat == "sor" else lib.gf_bipartitional
        reference = lazy(lambda: list(form(alpha, bp).coeffs))

        def check(code, out, err):
            if code != 0:
                return False
            coeffs = poly_of_output(out, as_json)
            return coeffs == reference() and sum(coeffs) == class_words(counts)

        return self._request("gf", argv, check)

    def _check(self, i, count):
        lib, rng = self.lib, self.rng
        what = ("bipartitional", "essential", "sor-conditions")[i % 3]
        n = 2 + i % 5
        if i % 2:
            pairs = random_edges(rng, n)
        else:
            blocks = random_blocks(rng, range(1, n + 1), rng.randint(1, n))
            bp = lib.OrderedBipartition(
                tuple(blocks), tuple(rng.randint(0, 1) for _ in blocks)
            )
            pairs = lib.from_ordered_bipartition(bp).edges
        relation = lib.Relation(n, frozenset(pairs))
        counts = tuple(rng.randint(1, 3) for _ in range(n))
        alpha = lib.MultiplicityVector(counts)
        argv = ["check", what, "--edges", edges_text(pairs), "--n", str(n)]
        if what != "bipartitional":
            argv += ["--alpha", alpha.render()]
        as_json = i % 4 == 0
        if as_json:
            argv += ["--format", "json"]

        def holds():
            if what == "bipartitional":
                return lib.is_bipartitional(relation)
            if what == "essential":
                return lib.is_essentially_bipartitional(relation, alpha) is not None
            return lib.satisfies_sorting_conditions(relation, alpha)[0]

        reference = lazy(holds)

        def check(code, out, err):
            expected = reference()
            if code != (0 if expected else 1):
                return False
            if as_json:
                return json.loads(out)["ok"] == expected
            return out.startswith("yes" if expected else "no")

        return self._request("check", argv, check)

    def _dist(self, i, count):
        lib, rng = self.lib, self.rng
        shape = list(DIST_SHAPES[i % len(DIST_SHAPES)]
                     if self.size == "full" else (2, 1, 1))
        rng.shuffle(shape)
        alpha = lib.MultiplicityVector(tuple(shape))
        n = alpha.n
        stat = lib.STAT_IDS[i % len(lib.STAT_IDS)]
        flag = TIE_FLAGS[(i // 6) % 4] if stat.startswith("sor") else None
        argv = ["dist", "--stat", stat, "--alpha", alpha.render(), "--jobs", "1"]
        relation = bp = None
        if stat.endswith("-graphical"):
            if i % 2:
                blocks = random_blocks(rng, range(1, n + 1), rng.randint(1, n))
                bp = lib.OrderedBipartition(
                    tuple(blocks), tuple(rng.randint(0, 1) for _ in blocks)
                )
                relation = lib.from_ordered_bipartition(bp)
            else:
                relation = lib.Relation(n, frozenset(random_edges(rng, n)))
            argv += ["--edges", edges_text(relation.edges), "--n", str(n)]
        if flag:
            argv += ["--tie-rule", flag]
        as_json = i % 3 == 2
        if as_json:
            argv += ["--format", "json"]
        rule = {None: lib.DEFAULT_TIE_RULE, "copy-label": lib.TIE_COPY_LABEL_MAX,
                "leftmost": lib.TIE_LEFTMOST, "rightmost": lib.TIE_RIGHTMOST}[flag]
        base = stat.split("-")[0]

        def independent():
            # closed forms where the theory gives one
            if base in ("inv", "maj") and relation is None:
                return list(lib.q_multinomial(alpha.counts).coeffs)
            if base in ("inv", "maj") and bp is not None:
                return list(lib.gf_bipartitional(alpha, bp).coeffs)
            return list(lib.distribution(stat, alpha, relation, tie_rule=rule).coeffs)

        reference = lazy(independent)

        def check(code, out, err):
            if code != 0:
                return False
            coeffs = poly_of_output(out, as_json)
            return coeffs == reference() and sum(coeffs) == class_words(alpha.counts)

        return self._request("dist", argv, check)

    def _bcode(self, i, count):
        lib, rng = self.lib, self.rng
        n = 2 + i % 5
        top = n
        blocks, counts = [], [0] * n
        while top > 0:
            width = min(top, rng.randint(1, 2))
            letters = list(range(top, top - width, -1))
            top -= width
            blocks.append(frozenset(letters))
            counts[letters[0] - 1] = 1 if width == 2 else rng.randint(1, 3)
            if width == 2:
                counts[letters[1] - 1] = rng.randint(1, 3)
        bp = lib.OrderedBipartition(tuple(blocks), (0,) * len(blocks))
        relation = lib.from_ordered_bipartition(bp)
        alpha = lib.MultiplicityVector(tuple(counts))
        letters = [x for x in range(1, n + 1) for _ in range(counts[x - 1])]
        rng.shuffle(letters)
        word = "".join(map(str, letters))
        common = ["--edges", edges_text(relation.edges), "--n", str(n),
                  "--alpha", alpha.render()]
        as_json = i % 4 == 1
        fmt = ["--format", "json"] if as_json else []
        if i % 2 == 0:
            def check(code, out, err):
                if code != 0:
                    return False
                payload = json.loads(out)
                decoded = lib.bcode_decode(
                    relation, alpha, lib.BCode.from_json_dict(payload)
                )
                return list(decoded.letters) == letters

            argv = ["bcode", "encode", "--word", word]
            return self._request("bcode", argv + common + fmt, check)
        code = lib.bcode_encode(relation, lib.make_word(letters, alpha))

        def check(status, out, err):
            if status != 0:
                return False
            if as_json:
                return json.loads(out)["letters"] == letters
            return out.strip() == word

        argv = ["bcode", "decode", "--code", json.dumps(code.to_json_dict())]
        return self._request("bcode", argv + common + fmt, check)

    def _verify(self, i, count):
        lib = self.lib
        counts = VERIFY_SHAPES[i % len(VERIFY_SHAPES)]
        theorem = ("thm1", "thm2")[i % 2]
        argv = ["verify", theorem, "--n", "2", "--alpha", ",".join(map(str, counts)),
                "--jobs", "1"]
        flag = TIE_FLAGS[(i // 2) % 4] if theorem == "thm2" else None
        if flag:
            argv += ["--tie-rule", flag]
        as_json = i % 3 == 0
        if as_json:
            argv += ["--format", "json"]
        alpha = lib.MultiplicityVector(counts)
        rule = {None: lib.DEFAULT_TIE_RULE, "copy-label": lib.TIE_COPY_LABEL_MAX,
                "leftmost": lib.TIE_LEFTMOST, "rightmost": lib.TIE_RIGHTMOST}[flag]
        if theorem == "thm1":
            reference = lazy(lambda: lib.verify_theorem1(2, alpha).ok)
        else:
            reference = lazy(lambda: lib.verify_theorem2(2, alpha, tie_rule=rule).ok)

        def check(code, out, err):
            if code != (0 if reference() else 1):
                return False
            if as_json:
                return json.loads(out)["relation_count"] == 16
            return "relations: 16," in out

        return self._request("verify", argv, check)

    def _malformed(self, i, count):
        rng = self.rng
        word = "".join(str(rng.randint(1, 3)) for _ in range(rng.randint(2, 8)))
        templates = (
            ["stats", "--word", word, "--alpha", "2,x", "--relation", "natural"],
            ["stats", "--word", word + "9", "--n", "3", "--edges", "2 1"],
            ["dist", "--stat", "inv-graphical", "--alpha", "2,2"],
            ["gf", "--stat", "inv", "--alpha", "1,1,1", "--edges", "1 2;2 3"],
            ["verify", "thm1", "--n", "4", "--alpha", "1,1,1,1"],
            ["bcode", "decode", "--alpha", "2,1", "--edges", "2 1",
             "--code", '{"partitions": [[9]], "markers": [0]}'],
            ["stats", "--word", word, "--tie-rule", "sideways"],
            ["frobnicate", "--word", word],
            ["stats", "--word", word + "11", "--alpha", "1,1,1", "--n", "3",
             "--relation", "natural"],
            ["check", "essential", "--edges", "1 1;2 1"],
        )
        argv = templates[i % len(templates)]

        def check(code, out, err):
            return code == 2 and out == "" and err != ""

        return self._request("malformed", argv, check)


WORKLOADS = {w.name: w for w in (DistLarge, SweepN3, BcodeRoundtrip, CliMix)}
