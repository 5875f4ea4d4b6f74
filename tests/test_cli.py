"""End-to-end runs of the command line, through run_cli."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mahonian import statistics
from mahonian.cli import run_cli

CHAIN_EDGES = "5 3;4 3;5 2;5 1;4 2;4 1;3 2;3 1"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_single_value(capsys):
    code, out, err = run(
        capsys, "stats", "--word", "2413576", "--relation", "natural", "--stat", "sor"
    )
    assert (code, out, err) == (0, "5\n", "")


def test_stats_all_values_text(capsys):
    code, out, _ = run(capsys, "stats", "--word", "1212", "--edges", "2 1")
    assert code == 0
    assert out == "inv 1\ndes 1\nmaj 2\nsor 1\n"


def test_stats_all_values_json(capsys):
    code, out, _ = run(
        capsys, "stats", "--word", "1212", "--edges", "2 1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "inv": 1,
        "des": 1,
        "maj": 2,
        "sor": 1,
        "descent_set": [2],
    }


def test_stats_trace_output(capsys):
    code, out, _ = run(
        capsys, "stats", "--word", "1212", "--edges", "2 1", "--trace"
    )
    assert code == 0
    assert "trace (tie rule copy-label-max):" in out
    assert out.rstrip().endswith("final 1122")
    code, out, _ = run(
        capsys,
        "stats", "--word", "1212", "--edges", "2 1", "--trace",
        "--tie-rule", "rightmost", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["trace"]["tie_rule"] == "rightmost"
    assert payload["trace"]["final"] == "1122"
    assert len(payload["trace"]["steps"]) == 4


def test_a_stats_request_sorts_once(capsys, monkeypatch):
    """A traced request takes sor from the trace, in text and in JSON."""
    passes = []
    sort_moves = statistics._sort_moves

    def counted(letters, tie_rule):
        passes.append(tie_rule)
        return sort_moves(letters, tie_rule)

    monkeypatch.setattr(statistics, "_sort_moves", counted)
    base = ["stats", "--word", "143123123", "--relation", "natural"]
    for extra in (["--trace"], ["--trace", "--format", "json"], []):
        passes.clear()
        code, _, _ = run(capsys, *base, *extra)
        assert (code, len(passes)) == (0, 1), extra


def test_stats_validates_word_against_alpha(capsys):
    code, _, err = run(
        capsys, "stats", "--word", "121", "--alpha", "1,2", "--relation", "natural"
    )
    assert code == 2
    assert err.startswith("error:")
    assert "usage: mahonian stats" in err


def test_stats_rejects_a_relation_on_another_alphabet(capsys):
    """--alpha names the class the relation scores, as in dist, check and
    bcode: a relation on 1..2 against a class on 1..3 is an input error."""
    code, out, err = run(
        capsys, "stats", "--word", "12", "--n", "2", "--edges", "2 1",
        "--alpha", "1,1,0",
    )
    assert (code, out) == (2, "")
    assert "relation is on 1..2 but alpha has n=3" in err


def test_dist_rejects_a_relation_on_another_alphabet(capsys):
    """A classical --stat scores under the natural order, yet a relation it
    is given must still be on the class's alphabet, as for the graphical
    stats."""
    for stat in ("inv", "inv-graphical"):
        code, out, err = run(
            capsys, "dist", "--n", "2", "--edges", "2 1", "--alpha", "1,1,1",
            "--stat", stat,
        )
        assert (code, out) == (2, ""), stat
        assert "relation is on 1..2 but alpha has n=3" in err, stat


def test_stats_rejects_an_empty_alpha(capsys):
    code, out, err = run(
        capsys, "stats", "--word", "21", "--alpha", "", "--relation", "natural",
        "--stat", "inv",
    )
    assert (code, out) == (2, "")
    assert "cannot parse multiplicity vector from ''" in err


def test_bcode_encode_rejects_an_empty_alpha(capsys):
    code, out, err = run(
        capsys, "bcode", "encode", "--word", "21", "--alpha", "", "--relation", "natural"
    )
    assert (code, out) == (2, "")
    assert "cannot parse multiplicity vector from ''" in err


def test_stats_requires_a_relation(capsys):
    code, _, err = run(capsys, "stats", "--word", "121")
    assert code == 2
    assert "relation is required" in err


def test_dist_classical_golden(capsys):
    code, out, _ = run(capsys, "dist", "--alpha", "1,1,1", "--stat", "inv")
    assert (code, out) == (0, "1 + 2*q + 2*q^2 + q^3\n")
    code, out, _ = run(
        capsys, "dist", "--alpha", "1,1,1", "--stat", "inv", "--format", "json"
    )
    assert json.loads(out) == {"coeffs": [1, 2, 2, 1]}


def test_dist_graphical_needs_a_relation(capsys):
    code, _, err = run(capsys, "dist", "--alpha", "1,2", "--stat", "maj-graphical")
    assert code == 2
    assert "relation is required" in err


def test_dist_parallel_matches_serial(capsys):
    base = ["dist", "--alpha", "2,2", "--stat", "sor-graphical", "--edges", "2 1"]
    code, serial, _ = run(capsys, *base, "--jobs", "1")
    assert code == 0
    code, sharded, _ = run(capsys, *base, "--jobs", "2")
    assert code == 0
    assert sharded == serial


def test_dist_class_cap_flag_and_env(capsys, monkeypatch):
    code, _, err = run(
        capsys, "dist", "--alpha", "2,2", "--stat", "inv", "--max-class", "5"
    )
    assert code == 2
    assert "cap is 5" in err

    # the cap has one channel, the flag: the environment is not read
    monkeypatch.setenv("MAHONIAN_MAX_CLASS", "5")
    code, _, _ = run(capsys, "dist", "--alpha", "2,2", "--stat", "inv")
    assert code == 0


def test_gf_matches_dist_when_conditions_hold(capsys):
    code, gf_out, _ = run(
        capsys, "gf", "--alpha", "2,1", "--stat", "sor", "--edges", "2 1"
    )
    assert code == 0
    assert gf_out == "1 + q + q^2\n"
    code, dist_out, _ = run(
        capsys, "dist", "--alpha", "2,1", "--stat", "sor-graphical", "--edges", "2 1"
    )
    assert dist_out == gf_out


def test_gf_from_bipartition_json(capsys):
    code, out, _ = run(
        capsys,
        "gf", "--alpha", "2,1", "--stat", "inv",
        "--bipartition", '{"blocks": [[2], [1]], "flags": [0, 0]}',
    )
    assert (code, out) == (0, "1 + q + q^2\n")
    code, _, err = run(
        capsys,
        "gf", "--alpha", "2,1", "--stat", "inv",
        "--bipartition", '{"blocks": [[2], [1]], "flags": [0, 0]}',
        "--edges", "2 1",
    )
    assert code == 2
    assert "not both" in err


def test_gf_rejects_non_bipartitional_relations(capsys):
    code, _, err = run(
        capsys, "gf", "--alpha", "1,1,1", "--stat", "inv", "--edges", "1 2;2 3;3 1"
    )
    assert code == 2
    assert "not bipartitional" in err


def test_gf_answers_for_every_essentially_bipartitional_relation(capsys):
    """gf --stat inv|maj exits 0 with dist's polynomial exactly when check
    essential finds a witness, and 2 otherwise: every relation on n <= 2
    with counts 0..2, and all 512 relations on (1,1,1) and (1,2,1)."""
    classes = [(a,) for a in range(3)]
    classes += [(a, b) for a in range(3) for b in range(3)]
    classes += [(1, 1, 1), (1, 2, 1)]
    accepted = 0
    for counts in classes:
        n = len(counts)
        pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        for mask in range(2 ** len(pairs)):
            edges = ";".join(
                f"{x} {y}" for bit, (x, y) in enumerate(pairs) if mask >> bit & 1
            )
            given = ["--alpha", ",".join(map(str, counts)), "--n", str(n),
                     "--edges", edges]
            essential, _, _ = run(capsys, "check", "essential", *given)
            accepted += essential == 0
            for stat in ("inv", "maj"):
                code, out, _ = run(capsys, "gf", "--stat", stat, *given)
                if essential == 0:
                    assert code == 0, (stat, counts, edges)
                    dist = run(capsys, "dist", "--stat", f"{stat}-graphical", *given)
                    assert out == dist[1], (stat, counts, edges)
                else:
                    assert (essential, code) == (1, 2), (counts, edges)
    assert accepted == 390


def test_gf_above_the_degree_cap_exits_2(capsys):
    for stat in ("inv", "sor"):
        code, out, err = run(
            capsys, "gf", "--alpha", "5000,5000", "--stat", stat, "--edges", "2 1"
        )
        assert (code, out) == (2, "")
        assert "exceeds the cap" in err


def test_sizes_past_the_digit_limit_exit_2(capsys):
    """A class whose size has more than 4,300 digits fails cleanly: the
    class cap's message and the gf coefficients never print the size."""
    for argv, message in (
        (["dist", "--alpha", "9000,9000", "--stat", "inv"], "5417-digit number of words"),
        (
            ["gf", "--alpha", "9000,9000", "--stat", "inv",
             "--bipartition", '{"blocks":[[1,2]],"flags":[0]}'],
            "class size has 5417 digits",
        ),
        (["gf", "--alpha", "9000,9000", "--stat", "sor", "--edges", ""], "5417 digits"),
    ):
        for form in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", form)
            assert (code, out) == (2, ""), (argv[0], form)
            assert message in err, (argv[0], form)


def test_huge_classes_are_refused_at_once(capsys):
    """A class of 2,000,000 letters is refused from its size estimate, with
    no exact product, well within a second."""
    for argv, message in (
        (["dist", "--alpha", "1000000,1000000", "--stat", "inv"], "602057-digit number of words"),
        (
            ["gf", "--alpha", "1000000,1000000", "--stat", "inv",
             "--bipartition", '{"blocks":[[1,2]],"flags":[0]}'],
            "class size has 602057 digits",
        ),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, ""), argv[0]
        assert message in err, argv[0]
        assert elapsed < 1, f"{argv[0]} took {elapsed:.2f}s of its 1s budget"


def test_gf_sorting_conditions_failure_exits_2(capsys):
    code, _, err = run(
        capsys, "gf", "--alpha", "1,2", "--stat", "sor", "--edges", "2 1;2 2"
    )
    assert code == 2
    assert "condition" in err


def test_check_bipartitional(capsys):
    code, out, _ = run(capsys, "check", "bipartitional", "--edges", "2 1")
    assert (code, out) == (0, "yes: {2} > {1}\n")
    code, out, _ = run(
        capsys, "check", "bipartitional", "--edges", "1 2;2 3;3 1"
    )
    assert (code, out) == (1, "no: not bipartitional\n")
    # an empty edge set is the one-block bipartition
    code, out, _ = run(capsys, "check", "bipartitional", "--edges", "", "--n", "2")
    assert (code, out) == (0, "yes: {2,1}\n")
    code, _, err = run(capsys, "check", "bipartitional", "--edges", "")
    assert code == 2
    assert "--n" in err


def test_check_essential(capsys):
    code, out, _ = run(
        capsys, "check", "essential", "--edges", "1 1;1 2", "--alpha", "1,1"
    )
    assert code == 0
    assert out == "yes: remove loops [1] add loops [-] -> {1} > {2}\n"
    code, out, _ = run(
        capsys, "check", "essential", "--edges", "1 2;2 1", "--alpha", "2,2"
    )
    assert code == 1
    assert out.startswith("no:")
    # 21 free letters: the predicate has no free-letter cap
    code, out, _ = run(
        capsys, "check", "essential", "--relation", "natural", "--alpha", ",".join(["1"] * 21)
    )
    assert code == 0
    assert out.startswith("yes:")


def test_check_sor_conditions(capsys):
    code, out, _ = run(
        capsys, "check", "sor-conditions", "--edges", "2 1;2 2", "--alpha", "2,1"
    )
    assert (code, out) == (0, "yes: sorting conditions hold\n")
    code, out, _ = run(
        capsys, "check", "sor-conditions", "--edges", "2 1;2 2", "--alpha", "1,2"
    )
    assert code == 1
    assert out.startswith("no: condition 1")


def test_bcode_round_trip_through_the_cli(capsys):
    code, out, _ = run(
        capsys, "bcode", "encode", "--word", "42345411", "--edges", CHAIN_EDGES
    )
    assert code == 0
    encoded = json.loads(out)
    assert encoded == {"partitions": [[4, 2, 2, 1], [1], [0, 0, 0]], "markers": [3, 0, 2]}
    code, out, _ = run(
        capsys,
        "bcode", "decode", "--alpha", "2,1,1,3,1", "--edges", CHAIN_EDGES,
        "--code", json.dumps(encoded),
    )
    assert (code, out) == (0, "42345411\n")


def test_bcode_decode_argument_errors(capsys):
    code, _, err = run(
        capsys, "bcode", "decode", "--alpha", "2,1,1,3,1", "--edges", CHAIN_EDGES
    )
    assert code == 2
    assert "--code is required" in err
    code, _, err = run(
        capsys,
        "bcode", "decode", "--alpha", "2,1,1,3,1", "--edges", CHAIN_EDGES,
        "--code", "not json",
    )
    assert code == 2
    assert "malformed code JSON" in err


def test_bcode_decode_checks_the_code_before_any_copy(capsys):
    """A billion copies of one letter make a plan of two blocks: the
    code's shape is checked against the counts' block masses, so a
    one-part partition exits 2 at once, with no copy of the block built."""
    start = time.perf_counter()
    code, _, err = run(
        capsys,
        "bcode", "decode", "--alpha", "1000000000,1", "--edges", "2 1",
        "--code", '{"partitions": [[0], [0]], "markers": [0, 0]}',
    )
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "partition 2 must have 1000000000 parts, got 1" in err
    assert elapsed < 1, f"took {elapsed:.2f}s of its 1s budget"


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "thm1", "--n", "2", "--alpha", "2,2")
    assert code == 0
    assert "result: PASS" in out

    code, out, _ = run(
        capsys,
        "verify", "thm2", "--n", "2", "--alpha", "2,1", "--tie-rule", "leftmost",
    )
    assert code == 1
    assert "result: FAIL" in out
    assert "disagree: edges=[1 1;2 1] predicate=no equidistributed=yes" in out

    # a letter of multiplicity 0 sits outside both equivalences
    code, out, _ = run(capsys, "verify", "thm1", "--n", "2", "--alpha", "1,0")
    assert code == 1
    assert "result: FAIL" in out


def test_verify_json_payload(capsys):
    code, out, _ = run(
        capsys,
        "verify", "thm2", "--n", "2", "--alpha", "2,1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["relation_count"] == 16
    assert payload["tie_rule"] == "copy-label-max"


def test_jobs_below_one_is_an_input_error(capsys):
    for jobs in ("0", "-3"):
        code, _, err = run(
            capsys, "verify", "thm1", "--n", "2", "--alpha", "1,1", "--jobs", jobs
        )
        assert code == 2
        assert "jobs must be at least 1" in err
        code, _, err = run(
            capsys, "dist", "--alpha", "1,1", "--stat", "inv", "--jobs", jobs
        )
        assert code == 2
        assert "jobs must be at least 1" in err


def test_verify_universe_guard(capsys):
    code, _, err = run(capsys, "verify", "thm1", "--n", "4", "--alpha", "1,1,1,1")
    assert code == 2
    assert "raise max_alphabet" in err


def test_chainword(capsys):
    code, out, _ = run(
        capsys, "chainword", "--alpha", "1,1,1", "--relation", "natural"
    )
    assert (code, out) == (0, "321\n")
    code, _, err = run(
        capsys, "chainword", "--alpha", "7,6", "--relation", "natural"
    )
    assert code == 2
    assert "cap" in err


def test_chainword_longer_than_the_recursion_limit(capsys):
    code, out, _ = run(
        capsys, "chainword", "--alpha", "1100", "--edges", "1 1", "--max-total", "1100"
    )
    assert (code, out) == (0, "1" * 1100 + "\n")


def test_alphabet_sizes_above_the_cap_exit_2(capsys):
    for argv in [
        ("stats", "--word", "2 1", "--relation", "natural", "--n", "1001"),
        ("check", "bipartitional", "--edges", "1001 1"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "alphabet size must be an integer in 1..1000" in err


def test_a_word_with_no_positive_letter_names_the_letter(capsys):
    """The alphabet inferred from the word is at least 1, so the letter check
    reports the letter instead of the alphabet size blaming it."""
    for argv in [
        ("stats", "--word", "0", "--relation", "natural"),
        ("bcode", "encode", "--word", "0", "--relation", "natural"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "letter 0 outside" in err, argv


def test_relation_from_files(capsys, tmp_path):
    text_file = tmp_path / "relation.txt"
    text_file.write_text("2 1\n")
    code, out, _ = run(
        capsys, "check", "bipartitional", "--relation", f"@{text_file}"
    )
    assert (code, out) == (0, "yes: {2} > {1}\n")

    json_file = tmp_path / "relation.json"
    json_file.write_text('{"n": 2, "edges": [[2, 1]]}')
    code, out, _ = run(
        capsys, "check", "bipartitional", "--relation", f"@{json_file}"
    )
    assert (code, out) == (0, "yes: {2} > {1}\n")

    code, _, err = run(
        capsys, "check", "bipartitional", "--relation", f"@{tmp_path / 'absent'}"
    )
    assert code == 2
    assert "cannot read" in err


def test_relation_json_needs_integers(capsys, tmp_path):
    # int() would read 2.9 as 2 and true as 1, giving the pair (2, 1)
    for body in ('{"n": 2, "edges": [[2.9, true]]}', '{"n": 2.0, "edges": [[2, 1]]}'):
        json_file = tmp_path / "relation.json"
        json_file.write_text(body)
        code, out, err = run(
            capsys, "check", "bipartitional", "--relation", f"@{json_file}"
        )
        assert (code, out) == (2, "")
        assert "malformed relation object" in err


def test_bipartition_json_needs_integers(capsys):
    for body in (
        '{"blocks": [[2.5], [1]], "flags": [0, 0]}',
        '{"blocks": [[2], [1]], "flags": [true, 0]}',
    ):
        code, out, err = run(
            capsys, "gf", "--alpha", "2,1", "--stat", "inv", "--bipartition", body
        )
        assert (code, out) == (2, "")
        assert "malformed bipartition object" in err


def test_code_json_needs_integers(capsys):
    for body in (
        '{"partitions": [[4, 2, 1.9, 1], [1], [0, 0, 0]], "markers": [3, 0, 2]}',
        '{"partitions": [[4, 2, 1, 1], [1], [0, 0, 0]], "markers": [3, false, 2]}',
    ):
        code, out, err = run(
            capsys,
            "bcode", "decode", "--alpha", "2,1,1,3,1", "--edges", CHAIN_EDGES,
            "--code", body,
        )
        assert (code, out) == (2, "")
        assert "malformed code object" in err


def test_json_past_the_parser_limits_exits_2(capsys, tmp_path):
    """A nesting past the recursion limit and an integer past the digit
    limit fail as malformed JSON on every JSON input, not as tracebacks."""
    json_file = tmp_path / "relation.json"
    for body in ('{"n": ' + "[" * 100000, '{"n": ' + "9" * 5000 + "}"):
        json_file.write_text(body)
        for argv, what in (
            (["bcode", "decode", "--alpha", "2,1,1,3,1", "--edges", CHAIN_EDGES,
              "--code", body], "code"),
            (["gf", "--alpha", "2,1", "--stat", "inv", "--bipartition", body],
             "bipartition"),
            (["check", "bipartitional", "--relation", f"@{json_file}"], "relation"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv[0]
            assert f"malformed {what} JSON" in err


def test_natural_relation_needs_an_alphabet_size(capsys):
    code, _, err = run(capsys, "check", "bipartitional", "--relation", "natural")
    assert code == 2
    assert "--n" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "dist", "--alpha", "1,1")[0] == 2  # missing --stat
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2


def test_console_script_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-m", "mahonian.cli", "stats", "--word", "2413576",
         "--relation", "natural", "--stat", "sor"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0
    assert result.stdout == "5\n"


def test_a_closed_stdout_exits_quietly():
    """A reader that stops early closes the pipe in the middle of a large
    polynomial: the command exits 1 with no traceback on stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "mahonian", "gf", "--stat", "inv",
         "--alpha", "100,100", "--edges", "2 1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert process.stdout.read(10) == b"1 + q + 2*"
    process.stdout.close()
    stderr = process.stderr.read().decode()
    process.stderr.close()
    assert process.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, fence):
    """The first fenced block after the README heading, as lines."""
    text = README.read_text()
    start = text.index(fence + "\n", text.index(heading)) + len(fence) + 1
    return text[start : text.index("```", start)].splitlines()


def readme_examples():
    """(argv, expected stdout) for each `$ mahonian ...` example: a trailing
    backslash continues the command, and an output line starting with `+`
    continues the polynomial wrapped onto the line before."""
    examples = []
    for line in readme_block("## Command line", "```"):
        if line.startswith("$ "):
            examples.append([line[2:], []])
        elif examples[-1][0].endswith("\\"):
            examples[-1][0] = examples[-1][0][:-1] + line
        elif line.startswith("+ "):
            examples[-1][1][-1] += " " + line
        elif line:
            examples[-1][1].append(line)
    return [
        pytest.param(
            shlex.split(command)[1:], output, id=" ".join(command.split()[1:3])
        )
        for command, output in examples
    ]


def masked(text):
    return re.sub(r"elapsed: [0-9.]+s", "elapsed: <t>", text)


def test_package_runs_as_a_module_from_a_checkout():
    """python -m mahonian, with only src on the path, runs README's dist
    example and prints its documented output."""
    argv = ["dist", "--alpha", "1,1,1", "--relation", "natural", "--stat", "inv"]
    (output,) = [p.values[1] for p in readme_examples() if p.values[0] == argv]
    src = str(README.parent / "src")
    result = subprocess.run(
        [sys.executable, "-m", "mahonian", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        cwd=README.parent,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "\n".join(output) + "\n"


@pytest.mark.parametrize("argv, output", readme_examples())
def test_readme_command_examples(capsys, argv, output):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert masked(out) == masked("\n".join(output) + "\n")


def test_readme_library_snippet(capsys):
    """The snippet runs and prints the values its comments give."""
    lines = readme_block("## Library", "```python")
    exec("\n".join(lines), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line.split("# ")[1] for line in lines if "print(" in line]
