"""Command-line surface: JSON envelopes, exit codes, batch input."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from specfactor import cli
from specfactor.cli import main
from specfactor.constructions import cycle
from specfactor.graph import Graph
from specfactor.graph6 import to_graph6
from specfactor.oracle import DeltaBreakdown, STPair
from specfactor.spectral import SpectralThreshold
from specfactor.theorems import CampaignReport, Lemma31Result


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    envelope = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, envelope, out


def test_envelope_shape(capsys):
    code, env, _ = run_cli(capsys, "spectrum", "D~{")
    assert code == 0
    assert set(env) == {"command", "status", "payload", "version"}
    assert env["command"] == "spectrum"
    assert env["status"] == "ok"
    assert env["payload"]["n"] == 5
    assert env["payload"]["eigenvalues"] == [4.0, -1.0, -1.0, -1.0, -1.0]


def test_output_is_deterministic(capsys):
    _, env1, out1 = run_cli(capsys, "extremal", "--family", "extremal-even", "--r", "6", "--m", "4")
    _, env2, out2 = run_cli(capsys, "extremal", "--family", "extremal-even", "--r", "6", "--m", "4")
    assert out1.out == out2.out
    assert env1 == env2


def test_threshold_payload(capsys):
    code, env, _ = run_cli(capsys, "threshold", "--family", "rho1", "--r", "4", "--m", "2")
    assert code == 0
    assert env["payload"]["kind"] == "closed-form-even"
    assert env["payload"]["value"] == pytest.approx(1 + math.sqrt(7), abs=1e-9)
    code2, env2, _ = run_cli(capsys, "threshold", "--family", "rho2", "--r", "4", "--m", "2")
    assert env2["payload"]["kind"] == "cubic-m2"
    assert env2["payload"]["value"] == pytest.approx(3.6261980685272936, abs=1e-9)


def test_extremal_payload(capsys):
    code, env, _ = run_cli(capsys, "extremal", "--family", "extremal-even", "--r", "4", "--m", "2")
    assert code == 0
    p = env["payload"]
    assert p["graph6"] == "D~w"
    assert p["n"] == 5 and p["edges"] == 9
    assert p["lambda1"] == pytest.approx(1 + math.sqrt(7), abs=1e-9)
    assert p["params"] == {"family": "extremal-even", "r": 4, "m": 2}


def test_factor_and_deficiency_and_critical(capsys):
    code, env, _ = run_cli(capsys, "factor", "--k", "1", "D~{")
    assert code == 0
    assert env["payload"] == {"exists": False, "deficiency": 1, "edges": None}
    code, env, _ = run_cli(capsys, "factor", "--k", "2", "D~{")
    assert env["payload"]["exists"] is True
    degs = [0] * 5
    for u, v in env["payload"]["edges"]:
        degs[u] += 1
        degs[v] += 1
    assert degs == [2] * 5
    code, env, _ = run_cli(capsys, "deficiency", "--k", "2", "Cl")
    assert env["payload"] == {"deficiency": 0}
    code, env, _ = run_cli(capsys, "critical", "--k", "1", "D~{")
    assert env["payload"] == {"critical": True}


def test_oracle_subcommands(capsys):
    code, env, _ = run_cli(capsys, "oracle", "delta", "--k", "1", "--s", "0", "--t", "3", "EhEG")
    assert code == 0
    assert env["command"] == "oracle delta"
    assert env["payload"] == {
        "s": [0], "t": [3], "k_s": 1, "degree_sum": 2, "k_t": 1, "tau": 2, "delta": 0,
    }
    # K5 itself is one odd component, so the empty pair already wins
    code, env, _ = run_cli(capsys, "oracle", "deficiency", "--k", "1", "D~{")
    assert env["payload"] == {"deficiency": 1, "s": [], "t": []}
    code, env, _ = run_cli(capsys, "oracle", "factor", "--k", "2", "Cl")
    assert env["payload"] == {"exists": True}


def test_oracle_refuses_cap_above_ceiling(capsys):
    big = to_graph6(cycle(40))
    for sub in ("deficiency", "factor"):
        code, env, err = run_cli(capsys, "oracle", sub, "--k", "1", big)
        assert code == 1
        assert env["status"] == "error"
        assert "n <= 16" in env["payload"]["error"]


def test_cap_flag_is_gone(capsys):
    for argv in (
        ("oracle", "deficiency", "--k", "1"),
        ("oracle", "factor", "--k", "1"),
        ("verify", "lemma3.1", "--k", "1", "--m", "2"),
    ):
        code, env, err = run_cli(capsys, *argv, "--cap", "16", "Cl")
        assert code == 1
        assert env["status"] == "error"
        assert "usage error" in err.err


def test_batch_stdin(capsys, monkeypatch):
    code, env, _ = run_cli(
        capsys, "deficiency", "--k", "2", stdin="D~{\nCl\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert env["payload"] == {"results": [{"deficiency": 0}, {"deficiency": 0}]}


def test_graph_argument_may_be_a_file(capsys, tmp_path):
    f = tmp_path / "graphs.g6"
    f.write_text("D~{\nCl\n")
    code, env, _ = run_cli(capsys, "spectrum", "--file", str(f))
    assert code == 0
    rows = env["payload"]["results"]
    assert len(rows) == 2
    assert rows[1]["eigenvalues"] == pytest.approx([2.0, 0.0, 0.0, -2.0], abs=1e-9)
    code, env, err = run_cli(capsys, "spectrum", "Cl", "--file", str(f))
    assert code == 1
    assert "usage error" in err.err


def test_graph6_argument_is_never_read_as_a_file(capsys, tmp_path, monkeypatch):
    (tmp_path / "Cl").write_text("D~{\n")
    monkeypatch.chdir(tmp_path)
    code, env, _ = run_cli(capsys, "spectrum", "Cl")
    assert code == 0
    assert env["payload"] == {"n": 4, "eigenvalues": [2.0, 0.0, 0.0, -2.0]}


def test_spectrum_prints_exact_zeros(capsys):
    # solver round-off on C4's zero eigenvalues stays off stdout
    code, _, out = run_cli(capsys, "spectrum", "Cl")
    assert code == 0
    assert '"eigenvalues": [2.0, 0.0, 0.0, -2.0]' in out.out


def test_spectrum_refuses_orders_above_the_cap(capsys):
    code, env, _ = run_cli(capsys, "spectrum", to_graph6(Graph(2049, [])))
    assert code == 1
    assert env["status"] == "error"
    assert "2048" in env["payload"]["error"]


def test_extremal_refuses_orders_above_the_cap_before_building(capsys, monkeypatch):
    # families ignore the parameters they do not take
    code, env, _ = run_cli(capsys, "extremal", "--family", "petersen", "--n", "5000")
    assert code == 0
    assert env["payload"]["n"] == 10
    # a parameter above the cap is refused before the graph is built, and a
    # graph that turns out too large before its graph6 string is written
    encoded = []
    monkeypatch.setattr(cli, "to_graph6", lambda g: encoded.append(g.n) or "")
    for argv, source in (
        (("cycle", "--n", "8000"), "--n"),
        (("cycle-union", "--lengths", "3000,4"), "--lengths"),
        (("cocktail-party", "--n", "2048"), "eigenvalues"),
    ):
        code, env, _ = run_cli(capsys, "extremal", "--family", *argv)
        assert code == 1
        assert env["status"] == "error"
        assert source in env["payload"]["error"] and "2048" in env["payload"]["error"]
    assert encoded == []


def test_oracle_delta_refuses_a_vertex_listed_twice(capsys):
    code, env, _ = run_cli(capsys, "oracle", "delta", "--k", "1", "--s", "0,0", "A_")
    assert code == 1
    assert env["status"] == "error"
    assert env["payload"]["error"] == "S lists vertex 0 more than once"


def test_oracle_delta_refuses_a_negative_k(capsys):
    code, env, _ = run_cli(capsys, "oracle", "delta", "--k", "-1", "--s", "0", "A_")
    assert code == 1
    assert env["status"] == "error"
    assert env["payload"]["error"] == "k must be non-negative"


def test_oracle_delta_refuses_a_non_integer_vertex(capsys):
    code, env, out = run_cli(capsys, "oracle", "delta", "--k", "1", "--s", "0,x", "Cl")
    assert code == 1 and env["status"] == "error"
    assert env["payload"]["error"] == "expected a comma-separated integer list, got '0,x'"
    assert out.err.startswith("usage error: ")


def test_empty_stdin_is_a_usage_error(capsys, monkeypatch):
    code, env, err = run_cli(capsys, "spectrum", stdin="", monkeypatch=monkeypatch)
    assert code == 1
    assert env["status"] == "error"
    assert "usage error" in err.err


def test_random_regular_without_a_connected_answer_is_an_error_envelope(capsys):
    code, env, _ = run_cli(capsys, "gen", "random-regular", "--n", "6", "--r", "1")
    assert code == 1
    assert env["status"] == "error"
    assert env["payload"]["error"] == "no connected 1-regular graph on 6 vertices exists"


def test_malformed_graph6_is_an_error_envelope(capsys):
    code, env, err = run_cli(capsys, "spectrum", "D~")
    assert code == 1
    assert env["status"] == "error"
    assert "offset" in env["payload"]["error"]


def test_malformed_batch_line_names_its_line(capsys, monkeypatch):
    code, env, err = run_cli(
        capsys, "deficiency", "--k", "2", stdin="D~{\nD~\nCl\n", monkeypatch=monkeypatch
    )
    assert code == 1
    assert env["status"] == "error"
    assert env["payload"]["error"].startswith("line 2: truncated bit vector")
    assert "line 2: " in err.err


def test_json_flag_is_gone(capsys):
    code, env, err = run_cli(capsys, "--json", "spectrum", "D~{")
    assert code == 1
    assert env["status"] == "error"
    assert "usage error" in err.err


def test_tolerance_flag_is_gone(capsys):
    code, env, err = run_cli(
        capsys, "verify", "thm3.3", "--r", "3", "--k", "2", "--m", "3", "--tolerance", "1e-6"
    )
    assert code == 1
    assert env["status"] == "error"
    assert "usage error" in err.err


def test_usage_errors_name_the_parsed_command(capsys):
    # leftover arguments once the command parsed
    code, env, err = run_cli(capsys, "oracle", "deficiency", "--k", "1", "--cap", "16", "Cl")
    assert code == 1 and "usage error" in err.err
    assert env["command"] == "oracle deficiency"
    assert env["payload"]["error"] == "unrecognized arguments: --cap Cl"
    # an error raised inside a subparser
    code, env, err = run_cli(capsys, "verify", "thm3.3", "--r", "3", "--k", "x", "--m", "2")
    assert code == 1 and "usage error" in err.err
    assert env["command"] == "verify thm3.3"
    code, env, _ = run_cli(capsys, "verify")
    assert env["command"] == "verify"
    # no command parsed
    code, env, err = run_cli(capsys, "bogus")
    assert code == 1 and "usage error" in err.err
    assert env["command"] == "?"


def test_missing_command_names_its_dest(capsys):
    code, env, err = run_cli(capsys)
    assert code == 1 and "usage error" in err.err
    assert env["command"] == "?"
    assert env["payload"]["error"] == "the following arguments are required: command"


def test_bad_flags_exit_one(capsys):
    code = main(["threshold", "--family", "rho9", "--r", "4", "--m", "2"])
    out = capsys.readouterr()
    assert code == 1


def test_gen_regular(capsys):
    code, env, _ = run_cli(capsys, "gen", "regular", "--n", "6", "--r", "3")
    assert code == 0
    assert env["payload"] == {"count": 2, "graphs": ["E]NG", "EZqW"]}


def test_gen_connected(capsys):
    code, env, _ = run_cli(capsys, "gen", "connected", "--n", "4")
    assert code == 0
    assert env["payload"]["count"] == 6


def test_gen_class_member_deterministic(capsys):
    code, env1, _ = run_cli(capsys, "gen", "class-member", "--r", "4", "--m", "2", "--seed", "7")
    code2, env2, _ = run_cli(capsys, "gen", "class-member", "--r", "4", "--m", "2", "--seed", "7")
    assert code == code2 == 0
    assert env1 == env2
    assert env1["payload"]["count"] == 1


def test_verify_ordering_ok(capsys):
    code, env, _ = run_cli(capsys, "verify", "ordering", "--r", "4")
    assert code == 0
    assert env["status"] == "ok"
    assert env["payload"]["min_is_f1"] is True


def test_verify_campaign_ok(capsys):
    code, env, _ = run_cli(
        capsys, "verify", "thm2.1", "--r", "4", "--m", "2", "--samples", "3", "--seed", "1"
    )
    assert code == 0
    assert env["status"] == "ok"
    assert env["payload"]["passed"] is True


def test_verify_counterexample_exits_two(capsys):
    code, env, _ = run_cli(
        capsys, "verify", "thm2.2", "--r", "4", "--m", "2", "--samples", "1", "--seed", "1"
    )
    assert code == 2
    assert env["status"] == "counterexample"
    assert env["payload"]["counterexamples"] == ["EU~o"]


def test_verify_lemma(capsys):
    code, env, _ = run_cli(capsys, "verify", "lemma3.1", "--k", "1", "--m", "2", "D~{")
    assert code == 0
    assert env["payload"]["applicable"] is False


# cubic on 22 vertices: three subdivided prisms wired to the hub 21
_LEMMA_VEHICLE_22 = "U{SXG?@?WA?D?B?C_???@??K??_??g??K??H?_OG"


def test_verify_lemma_above_the_sweep_cap(capsys):
    # the factor engine's Tutte pair answers past 16 vertices, unaided
    code, env, _ = run_cli(capsys, "verify", "lemma3.1", "--k", "1", "--m", "2", _LEMMA_VEHICLE_22)
    assert code == 0
    payload = env["payload"]
    assert payload["s"] == [21] and payload["t"] == []
    assert payload["deficiency"] == 2 and payload["satisfied"] is True
    # a pair can no longer be supplied
    code, env, err = run_cli(
        capsys, "verify", "lemma3.1", "--k", "1", "--m", "2", "--s", "21", _LEMMA_VEHICLE_22
    )
    assert code == 1 and env["status"] == "error"
    assert "usage error" in err.err


def _field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (("threshold", "--family", "rho2", "--r", "5", "--m", "3"), _field_names(SpectralThreshold)),
        (("oracle", "delta", "--k", "1", "--s", "0", "--t", "1", "Cl"),
         ["s", "t", *_field_names(DeltaBreakdown)]),
        (("oracle", "deficiency", "--k", "2", "Ch"), ["deficiency", *_field_names(STPair)]),
        (("verify", "thm2.1", "--r", "4", "--m", "2", "--samples", "0"),
         [*_field_names(CampaignReport), "passed"]),
        (("verify", "lemma3.1", "--k", "1", "--m", "2", "D~{"), _field_names(Lemma31Result)),
        (("verify", "lemma3.1", "--k", "1", "--m", "2", _LEMMA_VEHICLE_22),
         _field_names(Lemma31Result)),
    ],
    ids=["threshold", "oracle-delta", "oracle-deficiency", "thm2.1", "lemma-inapplicable", "lemma-applicable"],
)
def test_payload_keys_are_the_report_fields(capsys, argv, keys):
    # each payload is its report dataclass, serialized field by field in order
    code, env, _ = run_cli(capsys, *argv)
    assert code == 0
    assert list(env["payload"]) == keys


def test_human_rendering(capsys):
    code = main(["--human", "spectrum", "D~{"])
    out = capsys.readouterr()
    assert code == 0
    assert "eigenvalues" in out.out
    assert not out.out.strip().startswith("{")


def test_human_flag_may_follow_the_subcommand(capsys):
    code = main(["spectrum", "D~{", "--human"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: spectrum\n")


def test_human_rendering_numbers_lists_of_containers(capsys):
    assert main(["--human", "factor", "--k", "1", "Cl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["  edges: [2 items]", "    0: [0, 1]", "    1: [2, 3]"]
    # a report dataclass renders field by field, its tuples as lists
    assert main(["--human", "verify", "lemma3.1", "--k", "1", "--m", "2", _LEMMA_VEHICLE_22]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[8:11] == ["  s: [21]", "  t: []", "  subgraphs: [3 items]"]
    assert lines[11] == "    0: [0, 1, 2, 3, 4, 5, 6]"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "specfactor.cli", "threshold",
         "--family", "rho2", "--r", "3", "--m", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["payload"]["kind"] == "cubic-m1"


def _golden_cases():
    lines = Path(__file__).with_name("cli_golden.txt").read_text().splitlines()
    lines = [ln for ln in lines if not ln.startswith("#")]
    for i in range(0, len(lines), 3):
        argv, code, out = lines[i : i + 3]
        yield shlex.split(argv.removeprefix("$ ")), int(code.removeprefix("exit ")), out + "\n"


def test_stdout_bytes_unchanged(capsys):
    """Default JSON stdout is byte-deterministic: every invocation in
    cli_golden.txt prints the recorded bytes and exits with the recorded
    code.  Factor edges are left out, since any f-factor may be returned."""
    cases = list(_golden_cases())
    assert len(cases) >= 25
    for argv, code, out in cases:
        assert (main(argv), capsys.readouterr().out) == (code, out), argv


def _leaf_commands(parser) -> list[str]:
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [parser.prog.partition(" ")[2]]
    return [name for a in groups for p in a.choices.values() for name in _leaf_commands(p)]


def test_every_leaf_command_has_golden_bytes():
    leaves = _leaf_commands(cli._build_parser())
    assert len(leaves) == 19
    covered = {" ".join(argv[: len(leaf.split())]) for argv, _, _ in _golden_cases() for leaf in leaves}
    assert [leaf for leaf in leaves if leaf not in covered] == []
