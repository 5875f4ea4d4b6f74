"""Command line front end.

Subcommands: stats, dist, gf, check, bcode, verify, chainword.  Everything
is a thin wrapper over the library; output is plain text by default or JSON
with --format json.  Exit codes: 0 success (or positive check), 1 negative
check / verification disagreement, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bcode import BCode, bcode_decode, bcode_encode
from .errors import InvalidArguments, MahonianError
from .oracle import (
    STAT_IDS,
    DEFAULT_MAX_ALPHABET,
    distribution,
    verify_theorem1,
    verify_theorem2,
)
from .qseries import gf_bipartitional, gf_sorting
from .relations import (
    OrderedBipartition,
    Relation,
    _check_same_alphabet,
    effective_core,
    is_essentially_bipartitional,
    natural_order,
    relation_from_json_dict,
    relation_from_text,
    satisfies_sorting_conditions,
    to_ordered_bipartition,
)
from .statistics import (
    DEFAULT_TIE_RULE,
    TIE_COPY_LABEL_MAX,
    TIE_LEFTMOST,
    TIE_RIGHTMOST,
    graphical_descent_set,
    graphical_inversions,
    graphical_sorting_index,
    graphical_sorting_trace,
    maximal_chain_word,
)
from .words import (
    DEFAULT_MAX_CLASS,
    MultiplicityVector,
    make_word,
    parse_letters,
    render_letters,
)

TIE_RULE_FLAGS = {
    "copy-label": TIE_COPY_LABEL_MAX,
    "leftmost": TIE_LEFTMOST,
    "rightmost": TIE_RIGHTMOST,
}


def _read_source(spec: str) -> str:
    """Inline text, or the contents of @path."""
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise InvalidArguments(f"cannot read {spec[1:]}: {exc}")
    return spec


def _parse_json(text: str, what: str) -> dict:
    try:
        data = json.loads(text)
    # ValueError: bad syntax, or an integer past the digit limit
    except (ValueError, RecursionError) as exc:
        raise InvalidArguments(f"malformed {what} JSON: {exc}")
    if not isinstance(data, dict):
        raise InvalidArguments(f"{what} JSON must be an object")
    return data


def _resolve_relation(args, n_hint: int | None = None) -> Relation:
    """Build the relation from --relation/--edges, preferring --n, then the
    caller's hint (alpha or word alphabet), then letters mentioned."""
    n = args.n if args.n is not None else n_hint
    if args.relation is not None and args.edges is not None:
        raise InvalidArguments("pass either --relation or --edges, not both")
    if args.relation is not None:
        if args.relation == "natural":
            if n is None:
                raise InvalidArguments(
                    "--relation natural needs --n (or --alpha/--word to infer from)"
                )
            return natural_order(n)
        if args.relation.startswith("@"):
            text = _read_source(args.relation).strip()
            if text.startswith("{"):
                return relation_from_json_dict(_parse_json(text, "relation"))
            return relation_from_text(text, n)
        raise InvalidArguments(
            f"--relation must be 'natural' or '@file', got {args.relation!r}"
        )
    if args.edges is not None:
        return relation_from_text(args.edges, n)
    raise InvalidArguments("a relation is required: --relation or --edges")


def _resolve_alpha(args) -> MultiplicityVector:
    if args.alpha is None:
        raise InvalidArguments("--alpha is required")
    return MultiplicityVector.parse(args.alpha)


def _resolve_word(args, missing: str, *, nonempty: bool = False):
    """The relation and the word of --word.  The alphabet size comes from
    --n, then --alpha, then the word's largest letter.  With --alpha the word
    and the relation are checked against that class and the word comes back
    as a Word, otherwise as its bare letters."""
    if args.word is None:
        raise InvalidArguments(missing)
    alpha = None if args.alpha is None else MultiplicityVector.parse(args.alpha)
    n = args.n if args.n is not None else (alpha.n if alpha else None)
    letters = parse_letters(args.word, n)
    if nonempty and not letters:
        raise InvalidArguments("empty word")
    if n is None and letters:
        n = max(1, *letters)
    relation = _resolve_relation(args, n)
    if alpha:
        _check_same_alphabet(relation, alpha)
    return relation, make_word(letters, alpha) if alpha else letters


def _resolve_tie_rule(args) -> str:
    return TIE_RULE_FLAGS.get(args.tie_rule, DEFAULT_TIE_RULE)


def _emit(args, text_value: str, json_value) -> None:
    if args.format == "json":
        print(json.dumps(json_value))
    else:
        print(text_value)


def _add_common(parser, *, relation=False, alpha=False, word=False):
    if relation:
        parser.add_argument(
            "--relation", metavar="SPEC", help="'natural' or @file (JSON or 'x y' lines)"
        )
        parser.add_argument(
            "--edges", metavar="PAIRS", help="inline edges, e.g. \"5 3;5 2\""
        )
        parser.add_argument("--n", type=int, help="alphabet size when not inferable")
    if alpha:
        parser.add_argument(
            "--alpha", metavar="COUNTS", help="multiplicities, e.g. 2,1,1,3,1"
        )
    if word:
        parser.add_argument(
            "--word",
            metavar="LETTERS",
            help="contiguous digits (alphabet <= 9) or space-separated integers",
        )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_tie_rule(parser):
    parser.add_argument(
        "--tie-rule",
        choices=tuple(TIE_RULE_FLAGS),
        help="tie rule for the sorting index (default copy-label)",
    )


# ---------------------------------------------------------------- handlers


def _cmd_stats(args) -> int:
    relation, word = _resolve_word(args, "--word is required", nonempty=True)
    tie_rule = _resolve_tie_rule(args)

    descents = sorted(graphical_descent_set(relation, word))
    inv = graphical_inversions(relation, word)
    # the trace's steps sum to the index, so a traced request sorts once
    trace = None
    if args.trace and args.stat is None:
        trace = graphical_sorting_trace(relation, word, tie_rule)
        sor = trace.total
    else:
        sor = graphical_sorting_index(relation, word, tie_rule)
    values = {"inv": inv, "des": len(descents), "maj": sum(descents), "sor": sor}
    if args.stat is not None:
        _emit(args, str(values[args.stat]), {args.stat: values[args.stat]})
        return 0

    lines = [f"{name} {value}" for name, value in values.items()]
    payload = dict(values)
    payload["descent_set"] = descents
    if trace is not None:
        steps = [
            {"j": step.mover_position, "i": step.target_position,
             "letter": step.letter, "contribution": step.contribution}
            for step in trace.steps
        ]
        final = render_letters(trace.final_letters, relation.n)
        lines.append(f"trace (tie rule {tie_rule}):")
        lines.append("j i letter contribution")
        lines += [" ".join(map(str, step.values())) for step in steps]
        lines.append(f"final {final}")
        payload["trace"] = {"tie_rule": tie_rule, "steps": steps, "final": final}
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_dist(args) -> int:
    alpha = _resolve_alpha(args)
    relation = None
    if (
        args.stat.endswith("-graphical")
        or args.relation is not None
        or args.edges is not None
    ):
        relation = _resolve_relation(args, alpha.n)
    poly = distribution(
        args.stat,
        alpha,
        relation,
        tie_rule=_resolve_tie_rule(args),
        max_class=args.max_class,
        jobs=args.jobs,
    )
    _emit(args, poly.render(), poly.to_json_dict())
    return 0


def _cmd_gf(args) -> int:
    alpha = _resolve_alpha(args)
    if args.bipartition is not None:
        if args.relation is not None or args.edges is not None:
            raise InvalidArguments("pass either --bipartition or a relation, not both")
        data = _parse_json(_read_source(args.bipartition), "bipartition")
        bp = OrderedBipartition.from_json_dict(data)
    else:
        relation = _resolve_relation(args, alpha.n)
        if args.stat == "sor":
            # loops on letters occurring <= once never affect statistics,
            # so recovery works on the stripped core
            bp = to_ordered_bipartition(effective_core(relation, alpha))
        else:
            # by Theorem 1, a loop change on letters occurring once keeps inv and maj
            witness = is_essentially_bipartitional(relation, alpha)
            bp = witness.bipartition if witness else None
        if bp is None:
            raise InvalidArguments(
                "relation is not bipartitional, so it has no generating function here"
            )
    if args.stat == "sor":
        poly = gf_sorting(alpha, bp)
    else:
        poly = gf_bipartitional(alpha, bp)
    _emit(args, poly.render(), poly.to_json_dict())
    return 0


def _cmd_check(args) -> int:
    if args.what == "bipartitional":
        relation = _resolve_relation(args)
        bp = to_ordered_bipartition(relation)
        if bp is None:
            _emit(args, "no: not bipartitional", {"ok": False})
            return 1
        _emit(args, f"yes: {bp.render()}", {"ok": True, "bipartition": bp.to_json_dict()})
        return 0
    alpha = _resolve_alpha(args)
    relation = _resolve_relation(args, alpha.n)
    if args.what == "essential":
        witness = is_essentially_bipartitional(relation, alpha)
        if witness is None:
            _emit(
                args,
                "no: not essentially bipartitional for this class",
                {"ok": False},
            )
            return 1
        removed = ",".join(str(x) for x in sorted(witness.removed_loops)) or "-"
        added = ",".join(str(x) for x in sorted(witness.added_loops)) or "-"
        _emit(
            args,
            f"yes: remove loops [{removed}] add loops [{added}]"
            f" -> {witness.bipartition.render()}",
            {
                "ok": True,
                "removed_loops": sorted(witness.removed_loops),
                "added_loops": sorted(witness.added_loops),
                "bipartition": witness.bipartition.to_json_dict(),
            },
        )
        return 0
    # sor-conditions
    ok, reasons = satisfies_sorting_conditions(relation, alpha)
    if ok:
        _emit(args, "yes: sorting conditions hold", {"ok": True, "reasons": []})
        return 0
    _emit(args, "no: " + "; ".join(reasons), {"ok": False, "reasons": reasons})
    return 1


def _cmd_bcode(args) -> int:
    if args.action == "encode":
        relation, word = _resolve_word(args, "--word is required for encode")
        code = bcode_encode(relation, word).to_json_dict()
        _emit(args, json.dumps(code), code)
        return 0
    # decode
    alpha = _resolve_alpha(args)
    relation = _resolve_relation(args, alpha.n)
    if args.code is None:
        raise InvalidArguments("--code is required for decode")
    code = BCode.from_json_dict(_parse_json(_read_source(args.code), "code"))
    word = bcode_decode(relation, alpha, code)
    rendered = word.render()
    _emit(args, rendered, {"word": rendered, "letters": list(word.letters)})
    return 0


def _cmd_verify(args) -> int:
    alpha = _resolve_alpha(args)
    sweep = (
        verify_theorem1
        if args.theorem == "thm1"
        else functools.partial(verify_theorem2, tie_rule=_resolve_tie_rule(args))
    )
    report = sweep(
        args.n,
        alpha,
        max_alphabet=args.max_alphabet,
        max_class=args.max_class,
        jobs=args.jobs,
    )
    _emit(args, report.render(), report.to_json_dict())
    return 0 if report.ok else 1


def _cmd_chainword(args) -> int:
    alpha = _resolve_alpha(args)
    relation = _resolve_relation(args, alpha.n)
    word = maximal_chain_word(relation, alpha, args.max_total)
    rendered = word.render()
    _emit(args, rendered, {"word": rendered, "letters": list(word.letters)})
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="mahonian",
        description="Statistics on words driven by a directed relation: "
        "inversions, descents, major index, sorting index, their "
        "distributions, generating functions, codes and exhaustive checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("stats", help="statistics of one word under a relation")
    _add_common(p, relation=True, alpha=True, word=True)
    p.add_argument("--stat", choices=("inv", "des", "maj", "sor"), help="print one value only")
    _add_tie_rule(p)
    p.add_argument("--trace", action="store_true", help="show the sorting steps")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("dist", help="distribution of a statistic over a class")
    _add_common(p, relation=True, alpha=True)
    p.add_argument("--stat", choices=STAT_IDS, required=True)
    _add_tie_rule(p)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers for sor under copy-label-max on a class with a"
        " repeated letter, the one case that walks words, sharded over the"
        " placements of the top letter's copies",
    )
    p.add_argument(
        "--max-class",
        type=int,
        default=DEFAULT_MAX_CLASS,
        help="refuse a class of more words than this (default 10^7), whatever"
        " the route",
    )
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("gf", help="closed-form generating function of a statistic")
    _add_common(p, relation=True, alpha=True)
    p.add_argument("--stat", choices=("inv", "maj", "sor"), required=True)
    p.add_argument(
        "--bipartition",
        metavar="JSON",
        help='inline JSON or @file: {"blocks":[[5,4],[3],[2,1]],"flags":[0,0,0]}',
    )
    p.set_defaults(handler=_cmd_gf)

    p = sub.add_parser("check", help="structural predicates of a relation")
    p.add_argument(
        "what", choices=("bipartitional", "essential", "sor-conditions")
    )
    _add_common(p, relation=True, alpha=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("bcode", help="encode a word as a code, or decode one")
    p.add_argument("action", choices=("encode", "decode"))
    _add_common(p, relation=True, alpha=True, word=True)
    p.add_argument(
        "--code",
        metavar="JSON",
        help='inline JSON or @file: {"partitions":[[4,2,2,1],[1],[0,0,0]],"markers":[3,0,2]}',
    )
    p.set_defaults(handler=_cmd_bcode)

    p = sub.add_parser("verify", help="exhaustive equidistribution sweeps")
    p.add_argument("theorem", choices=("thm1", "thm2"))
    p.add_argument("--n", type=int, required=True, help="alphabet size to sweep")
    _add_common(p, alpha=True)
    _add_tie_rule(p)
    p.add_argument(
        "--max-alphabet",
        type=int,
        default=DEFAULT_MAX_ALPHABET,
        help="largest alphabet the sweep will accept",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument(
        "--max-class",
        type=int,
        default=DEFAULT_MAX_CLASS,
        help="refuse a class of more words than this (default 10^7)",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("chainword", help="word built from longest relation chains")
    _add_common(p, relation=True, alpha=True)
    p.add_argument(
        "--max-total", type=int, default=12, help="cap on the class mass"
    )
    p.set_defaults(handler=_cmd_chainword)

    return parser, sub.choices  # each subcommand's parser, by name


# parsing leaves the parser as it was, so one per process serves every call
_parser = functools.cache(build_parser)


def run_cli(argv=None) -> int:
    parser, registry = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except MahonianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        synopsis = registry.get(args.command)
        if synopsis is not None:
            print(synopsis.format_usage(), end="", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at exit cannot raise again, and exit 1 as Python does on EPIPE
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
