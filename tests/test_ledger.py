"""The verdict ledger: every check row of tools/report_set.py's reports, as
(id, beta, pass, skipped, warning), against tests/verdict_ledger.txt.

The float evidence is left out, so another BLAS build reads the same table;
`near` marks the rows it may still decide differently. A row that is wrong
on purpose or by a known defect carries a reason, defined in the table's
header.
"""

import importlib.util
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
