"""The verdict ledger: every check row of tools/report_set.py's reports, as
(id, beta, pass, skipped, warning), against tests/verdict_ledger.txt.

The float evidence is left out, so another BLAS build reads the same table;
`near` marks the rows it may still decide differently. A row that is wrong
on purpose or by a known defect carries a reason, defined in the table's
header.
"""

import importlib.util
import json
from collections import Counter, defaultdict
from pathlib import Path

LEDGER = Path(__file__).with_name("verdict_ledger.txt")
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def read_ledger():
    """The reason texts by key, and per report line its rows as
    ((id, beta, pass, skipped, warning), near, reason)."""
    reasons, lines = {}, defaultdict(list)
    for text in LEDGER.read_text().splitlines():
        if text.startswith("# reason "):
            key, _, why = text[len("# reason "):].partition(": ")
            reasons[key] = why
        elif text and not text.startswith("#"):
            line, cid, beta, *flags, near, reason = text.split()
            row = (cid, None if beta == "-" else float(beta), *(f == "1" for f in flags))
            lines[int(line)].append((row, near == "1", reason))
    return reasons, lines


def tool(name: str):
    """The module of tools/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_rows():
    report_set = tool("report_set")
    return {k: [(c.check_id, c.beta, c.passed, c.skipped, c.warning) for c in r.checks]
            for k, r in enumerate(report_set.reports(), start=1)}


def test_ledger_reasons_mark_exactly_the_rows_not_passed():
    reasons, lines = read_ledger()
    for k, rows in lines.items():
        for (cid, beta, passed, skipped, _), _, reason in rows:
            assert (reason != "-") == (not (passed or skipped)), (k, cid, beta, reason)
            assert reason == "-" or reason in reasons, (k, cid, beta, reason)


def test_report_set_verdicts_match_the_ledger():
    reasons, lines = read_ledger()
    got = report_rows()
    assert sorted(got) == sorted(lines)
    for k, rows in got.items():
        want = [row for row, _, _ in lines[k]]
        flips = [(g, w, near) for g, w, (_, near, _) in zip(rows, want, lines[k]) if g != w]
        assert len(rows) == len(want) and not flips, (
            f"report line {k}: (got, ledger, near) {flips or (len(rows), len(want))}")
    wrong = Counter(reason for rows in lines.values() for _, _, reason in rows
                    if reason != "-")
    print(f"{sum(wrong.values())} known-wrong rows: {dict(wrong)}")


def test_every_row_that_noise_flips_is_marked_near():
    """tools/ledger_near.py's noise draws at its default seeds 0-4: a row
    whose verdict any of them flips is marked `near` in the ledger."""
    _, lines = read_ledger()
    flipped = 0
    for k, line in enumerate(tool("ledger_near").flips(0, 4), start=1):
        assert len(line) == len(lines[k])
        unmarked = [(row, count) for (row, count), (_, near, _) in zip(line, lines[k])
                    if count and not near]
        assert not unmarked, f"report line {k}: flipped rows not marked near {unmarked}"
        flipped += sum(1 for _, count in line if count)
    assert flipped     # the draws do reach the verdicts


def test_report_diff_prints_each_changed_row(tmp_path, capsys):
    """tools/report_diff.py on two tiny report sets: one line per changed
    row with its changed evidence keys, exit 1; identical inputs exit 0."""
    row = lambda cid, ok, evidence, **beta: {"id": cid, "pass": ok, "evidence": evidence, **beta}
    same = {"n": 2, "checks": [row("P1", True, {"residual": 0.0})]}
    old = {"n": 3, "summary": {"failed": 0}, "checks": [
        row("P1", True, {"residual": 0.0}),
        row("THM.iii", True, {"max_eig_sampled_bound": -1.5, "route": "derived"}, beta=0.5),
        row("THM.vi", True, {}, beta=0.5)]}
    new = {"n": 3, "summary": {"failed": 1}, "checks": [
        row("P1", True, {"residual": 0.0}),
        row("THM.iii", True, {"max_eig_sampled": -2.0, "route": "derived"}, beta=0.5),
        row("THM.vi", False, {}, beta=0.5),
        row("THM.v", True, {"max_eig": -1.0}, beta=0.5)]}
    paths = []
    for name, reports in (("parent", [same, old]), ("change", [same, new, same])):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in reports))
    report_diff = tool("report_diff")
    assert report_diff.main([str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == ""
    assert report_diff.main([str(p) for p in paths]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "2 THM.iii 0.5 pass true -> true: max_eig_sampled_bound -1.5 -> absent, "
        "max_eig_sampled absent -> -2.0",
        "2 THM.vi 0.5 pass true -> false",
        "2 THM.v 0.5 pass absent -> true: max_eig absent -> -1.0",
        '2 report: summary {"failed": 0} -> {"failed": 1}',
        "3 P1 pass absent -> true: residual absent -> 0.0",
        "3 report: n absent -> 2",
    ]
