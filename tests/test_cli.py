import hashlib
import json
import os
import re
import shlex
import stat
from pathlib import Path

import pytest

from mwspec import cli
from mwspec.cli import build_parser, main
from mwspec.golden import golden_instance
from mwspec.model import instance_hash, parse_instance, serialize_instance, validate


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_valid_deterministic_instance(tmp_path, capsys):
    out = tmp_path / "a.json"
    code, stdout, _ = run(["gen", "--n", "4", "--s", "2", "--seed", "1",
                           "--extra-edges", "1", "--out", str(out)], capsys)
    assert code == 0
    hash_one = stdout.strip()
    inst = parse_instance(out.read_text())
    assert validate(inst.tree, require_tree=True).ok
    code, stdout, _ = run(["gen", "--n", "4", "--s", "2", "--seed", "1",
                           "--extra-edges", "1", "--out", str(out)], capsys)
    assert stdout.strip() == hash_one


@pytest.mark.parametrize("kind", ["float", "rational"])
def test_gen_prints_the_hash_of_the_instance_it_writes(tmp_path, capsys, kind):
    out = tmp_path / "a.json"
    code, stdout, _ = run(["gen", "--n", "5", "--s", "2", "--seed", "7", "--extra-edges", "2",
                           "--scalar-kind", kind, "--out", str(out)], capsys)
    assert code == 0
    inst = parse_instance(out.read_text())
    assert inst.is_exact == (kind == "rational")
    assert stdout.strip() == instance_hash(inst)


def test_gen_rejects_small_n(tmp_path, capsys):
    code, _, err = run(["gen", "--n", "1", "--out", str(tmp_path / "x.json")],
                       capsys)
    assert code == 2
    assert "n must be" in err


@pytest.mark.parametrize("args", [
    ["--weight-lo", "nan"],
    ["--weight-hi", "inf"],
    ["--seed", "-1"],
    ["--weight-lo", "1e308", "--weight-hi", "1e308"],
    ["--weight-lo", "1e300", "--weight-hi", "1e300", "--scalar-kind", "rational"],
    ["--weight-hi", "20", "--scalar-kind", "rational"],
], ids=["nan-weight-lo", "inf-weight-hi", "negative-seed", "overflowing-weights",
        "rational-with-range", "rational-with-weight-hi"])
def test_gen_bad_argument_exits_two(tmp_path, capsys, args):
    out = tmp_path / "x.json"
    code, _, err = run(["gen", "--n", "4", *args, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert not out.exists()


def test_gen_names_the_weight_range_that_overflows(tmp_path, capsys):
    code, _, err = run(["gen", "--n", "3", "--weight-lo", "1e308", "--weight-hi", "1e308",
                        "--out", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert err == "error: weights with eigenvalues in [1e+308, 1e+308] overflow the " \
                  "float range at s = 2\n"


def test_verify_golden_instance(tmp_path, capsys):
    inst_path = tmp_path / "golden.json"
    inst_path.write_text(serialize_instance(golden_instance()))
    report_path = tmp_path / "report.json"
    code, stdout, _ = run(["verify", "--in", str(inst_path), "--beta", "1",
                           "--out", str(report_path)], capsys)
    assert code == 0
    assert "passed: all" in stdout
    report = json.loads(report_path.read_text())
    assert report["summary"]["failed"] == 0
    # rational instance auto-selects the exact kernel cross-check
    assert report["kernel_mode"] == "both"
    assert any(c["id"] == "EXACT-CONSISTENCY" for c in report["checks"])


def test_verify_multiple_betas(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    report_path = tmp_path / "r.json"
    run(["gen", "--n", "5", "--s", "2", "--seed", "3", "--out", str(inst_path)],
        capsys)
    code, _, _ = run(["verify", "--in", str(inst_path), "--beta", "0",
                      "--beta", "1", "--beta", "10", "--out", str(report_path)],
                     capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["betas"] == [0.0, 1.0, 10.0]
    betas_seen = {c.get("beta") for c in report["checks"] if "beta" in c}
    assert betas_seen == {0.0, 1.0, 10.0}


def test_verify_corrupted_exits_one(tmp_path, capsys):
    inst_path = tmp_path / "golden.json"
    inst_path.write_text(serialize_instance(golden_instance()))
    code, stdout, _ = run(["verify", "--in", str(inst_path), "--beta", "1",
                           "--corrupt-d", "1,3,1.1"], capsys)
    assert code == 1
    assert "FAILED" in stdout


@pytest.mark.parametrize("args", [
    ["--beta", "-1"],
    ["--beta", "nan"],
    ["--beta", "1", "--corrupt-d", "99,99,2"],
    ["--beta", "1", "--corrupt-d", "1,1,nan"],
    ["--beta", "1", "--corrupt-d", "2,2,0.5"],
    ["--beta", "1", "--corrupt-d", "1,3,1"],
], ids=["negative-beta", "nan-beta", "corrupt-out-of-range", "corrupt-nan-factor",
        "corrupt-zero-entry", "corrupt-unit-factor"])
def test_verify_bad_argument_exits_two(tmp_path, capsys, args):
    inst_path = tmp_path / "golden.json"
    inst_path.write_text(serialize_instance(golden_instance()))
    code, stdout, err = run(["verify", "--in", str(inst_path), *args], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "FAILED" not in stdout


@pytest.mark.parametrize("mode", ["both"])
def test_verify_exact_mode_on_float_instance_exits_two(tmp_path, capsys, mode):
    inst_path = tmp_path / "float.json"
    run(["gen", "--n", "4", "--s", "2", "--seed", "3", "--out", str(inst_path)],
        capsys)
    report_path = tmp_path / "r.json"
    code, stdout, err = run(["verify", "--in", str(inst_path), "--mode", mode,
                             "--out", str(report_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "rational" in err
    assert not report_path.exists() and "passed" not in stdout


def _one_edge_instance(kind, w):
    edges = {"edges": [{"u": 1, "v": 2, "w": w}]}
    return json.dumps({"n": 2, "s": len(w), "scalar_kind": kind,
                       "tree": edges, "graph": edges})


def _three_vertex_path(w, kind="float"):
    edges = {"edges": [{"u": 1, "v": 2, "w": w}, {"u": 2, "v": 3, "w": w}]}
    return json.dumps({"n": 3, "s": len(w), "scalar_kind": kind,
                       "tree": edges, "graph": edges})


@pytest.mark.parametrize("text, betas", [
    (_one_edge_instance("float", [[1e308]]), []),
    (_one_edge_instance("float", [[1e308]]), ["0"]),
    (_one_edge_instance("float", [[1e308]]), ["10"]),
    # D's path sums overflow while it is assembled, outside the checks
    (_three_vertex_path([[1e308]]), []),
    # L's inverted weights overflow to inf; no LAPACK error may escape
    (_three_vertex_path([["1/1" + "0" * 308]], "rational"), []),
], ids=["default", "0", "10", "three-vertex", "rational-1e-308"])
def test_verify_overflowing_instance_does_not_pass(tmp_path, capsys, text, betas):
    # a finite PD weight whose float operators overflow: no verdict is
    # computed, so no failure may be downgraded to an ill-conditioning warning;
    # assembly leaks no numpy RuntimeWarning (pytest makes one an error)
    inst_path = tmp_path / "big.json"
    inst_path.write_text(text)
    argv = ["verify", "--in", str(inst_path)]
    for b in betas:
        argv += ["--beta", b]
    code, stdout, _ = run(argv, capsys)
    assert code == 1
    assert "passed" not in stdout and stdout.startswith("FAILED")


def test_verify_ill_conditioned_rational_instance(tmp_path, capsys):
    inst_path = tmp_path / "ill.json"
    inst_path.write_text(_one_edge_instance(
        "rational", [["1", "0"], ["0", "1/10000000000"]]))
    report_path = tmp_path / "r.json"
    code, stdout, _ = run(["verify", "--in", str(inst_path), "--mode", "both",
                           "--out", str(report_path)], capsys)
    assert code == 0 and stdout.startswith("passed")
    checks = json.loads(report_path.read_text())["checks"]
    assert any(c["id"] == "EXACT-CONSISTENCY" for c in checks)


def test_verify_missing_file_exits_three(capsys):
    code, _, err = run(["verify", "--in", "/nonexistent/file.json"], capsys)
    assert code == 3
    assert err.startswith("I/O error:")


@pytest.mark.parametrize("subcommand", ["verify", "gen"])
def test_unwritable_out_exits_three(tmp_path, capsys, subcommand):
    inst_path = tmp_path / "golden.json"
    inst_path.write_text(serialize_instance(golden_instance()))
    out = tmp_path / "missing-dir" / "out.json"
    argv = (["verify", "--in", str(inst_path), "--beta", "1"]
            if subcommand == "verify" else ["gen", "--n", "3"])
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert code == 3
    assert err.startswith("I/O error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["golden.json"]
    if subcommand == "gen":
        assert stdout == ""     # no hash of an instance that was not written


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_outputs_get_the_mode_open_would_give_them(tmp_path, capsys, umask):
    # written through a temporary file, yet not left at its 0600
    inst_path, report_path = tmp_path / "inst.json", tmp_path / "report.json"
    old = os.umask(umask)
    try:
        assert run(["gen", "--n", "3", "--out", str(inst_path)], capsys)[0] == 0
        assert run(["verify", "--in", str(inst_path), "--beta", "1",
                    "--out", str(report_path)], capsys)[0] == 0
    finally:
        os.umask(old)
    for path in (inst_path, report_path):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_verify_bad_instance_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # not JSON, not UTF-8, and nested past Python's recursion limit
    for text in (b"{not json", bytes.fromhex("fffe00626164"),
                 b"[" * 100000 + b"]" * 100000):
        bad.write_bytes(text)
        code, stdout, err = run(["verify", "--in", str(bad)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err and stdout == ""


@pytest.mark.parametrize("kind, entry", [
    ("float", "1" * 5000),
    ("rational", '"' + "1" * 5000 + '"'),
], ids=["json-integer", "rational-literal"])
def test_verify_integer_past_digit_limit_exits_two(tmp_path, capsys, kind, entry):
    # int() refuses more than 4300 digits with a plain ValueError
    inst_path = tmp_path / "big.json"
    inst_path.write_text(_one_edge_instance(kind, [["W"]]).replace('"W"', entry))
    code, stdout, err = run(["verify", "--in", str(inst_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "digits" in err
    assert "Traceback" not in err and stdout == ""


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_verify_non_finite_weight_exits_two(tmp_path, capsys, literal):
    # 1e999 is valid JSON that parses to inf, so validate must catch it too
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps({
        "n": 2, "s": 1, "scalar_kind": "float",
        "tree": {"edges": [{"u": 1, "v": 2, "w": [["WEIGHT"]]}]},
        "graph": {"edges": [{"u": 1, "v": 2, "w": [[1.0]]}]},
    }).replace('"WEIGHT"', literal))
    code, stdout, err = run(["verify", "--in", str(inst_path), "--beta", "1"],
                            capsys)
    assert code == 2
    assert err.startswith("error:") and "non-finite" in err
    assert "Traceback" not in err and "FAILED" not in stdout


def test_verify_names_the_checks_downgraded_to_warnings(tmp_path, capsys):
    # weights of 1/10^300: the weight classifier downgrades 18 fails to
    # warnings, so the line must not say `passed: all`; the exit code stays 0
    inst_path = tmp_path / "tiny.json"
    inst_path.write_text(_three_vertex_path([["1/1" + "0" * 300]], "rational"))
    code, stdout, _ = run(["verify", "--in", str(inst_path)], capsys)
    assert code == 0
    assert stdout == ("passed: 26 checks, 2 skipped; 18 downgraded to warnings: "
                      "FM-nullity, P3, THM.iv, THM.iv.haynsworth, THM.vi, THM.vi.gx\n")


def test_golden_exits_zero(capsys):
    code, stdout, _ = run(["golden"], capsys)
    assert code == 0
    assert stdout == "golden: ok\n"


def test_readme_instance_example_verifies(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Instance files", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    inst_path = tmp_path / "readme.json"
    inst_path.write_text(example)
    code, stdout, _ = run(["verify", "--in", str(inst_path)], capsys)
    assert code == 0
    assert stdout.startswith("passed: all")


@pytest.mark.parametrize("out, digest", [
    ("inst.json", "e8f120a9e04629f26c50b5b0daace80cdf4d128557e0a56a5fdddd53bf742023"),
    ("rat.json", "ae80d296b91b7f1127f160b57975a40282325caec9897a5c8b2cd8ea95041395"),
])
def test_readme_gen_examples_keep_their_bytes(tmp_path, capsys, out, digest):
    # the instance file of each quick-start `mwspec gen` line, to the byte:
    # a change to the weight draws or to the serializer shows here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    argv = next(shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("mwspec gen") and line.endswith(f"--out {out}"))
    argv[-1] = str(tmp_path / out)
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == digest
    assert stdout == digest + "\n"


@pytest.mark.parametrize("flag", ["--rel-residual", "--eig-zero", "--nonzero-floor"])
def test_verify_takes_no_threshold(tmp_path, capsys, flag):
    # the thresholds are constants; a former flag is an unknown argument
    inst_path = tmp_path / "golden.json"
    inst_path.write_text(serialize_instance(golden_instance()))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(inst_path), flag, "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    examples = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(examples) == 2      # the verifier, and a graph built by hand
    for example in examples:
        exec(compile(example, "README.md", "exec"), {})
        assert "'failed': 0" in capsys.readouterr().out


def test_usage_error_on_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_main_builds_its_parser_once(capsys):
    # each argparse build leaves objects in reference cycles; main reuses one
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["golden"]) == 0
    assert cli._parser.cache_info().misses == 1
    assert capsys.readouterr().out == "golden: ok\n" * 3
    assert build_parser() is not build_parser()     # the public builder builds anew
