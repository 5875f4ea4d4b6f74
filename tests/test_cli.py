"""End-to-end runs of the command line, through run_cli."""

import json
import subprocess
import sys

import pytest

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


def test_stats_validates_word_against_alpha(capsys):
    code, _, err = run(
        capsys, "stats", "--word", "121", "--alpha", "1,2", "--relation", "natural"
    )
    assert code == 2
    assert err.startswith("error:")
    assert "usage: mahonian stats" in err


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

    monkeypatch.setenv("MAHONIAN_MAX_CLASS", "5")
    code, _, err = run(capsys, "dist", "--alpha", "2,2", "--stat", "inv")
    assert code == 2
    assert "cap is 5" in err

    monkeypatch.setenv("MAHONIAN_MAX_CLASS", "abc")
    code, _, err = run(capsys, "dist", "--alpha", "2,2", "--stat", "inv")
    assert code == 2
    assert "MAHONIAN_MAX_CLASS must be an integer" in err

    monkeypatch.setenv("MAHONIAN_MAX_CLASS", "6")
    code, out, _ = run(capsys, "dist", "--alpha", "2,2", "--stat", "inv")
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


def test_natural_relation_needs_an_alphabet_size(capsys):
    code, _, err = run(capsys, "check", "bipartitional", "--relation", "natural")
    assert code == 2
    assert "--n" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "dist", "--alpha", "1,1")[0] == 2  # missing --stat
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "mahonian.cli", "stats", "--word", "2413576",
         "--relation", "natural", "--stat", "sor"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "5\n"
