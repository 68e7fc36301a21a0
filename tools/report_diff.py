"""Compare two outputs of tools/report_set.py, line by line.

    python tools/report_set.py > change.jsonl
    (cd ../parent && python tools/report_set.py) > parent.jsonl
    python tools/report_diff.py parent.jsonl change.jsonl

For each report line that differs, prints one line per changed row, a row
being one check id at one beta (none for a preliminary):

    62 THM.iii 0.5 pass true -> true: max_eig_sampled_bound -1.5e-09 -> absent,
        max_eig_sampled absent -> -1.03e-08

(one line, wrapped here), with every evidence key whose value changed,
its old and its new value as JSON, "absent" where a side lacks it. A row
present on one side only reads its pass as absent on the other (every
row, where a side lacks the line), and a change outside the rows (a
summary, an instance hash) prints under the name "report". Exits 0 when
the two inputs are identical, 1 otherwise.
"""

from __future__ import annotations

import json
import signal
import sys
from itertools import zip_longest


ABSENT = object()


def _text(value) -> str:
    return "absent" if value is ABSENT else json.dumps(value)


def _rows(report: dict) -> dict:
    """A report's rows by (id, beta), each with its evidence and flags."""
    rows = {}
    for check in report.get("checks", ()):
        flags = {k: v for k, v in check.items() if k not in ("id", "beta", "evidence", "pass")}
        rows[check["id"], check.get("beta")] = (
            check.get("pass"), {**check.get("evidence", {}), **flags})
    return rows


def _changes(a: dict, b: dict) -> list[str]:
    """`key old -> new` for every key whose value differs between a and b."""
    keys = [*a, *(k for k in b if k not in a)]
    return [f"{k} {_text(a.get(k, ABSENT))} -> {_text(b.get(k, ABSENT))}"
            for k in keys if a.get(k, ABSENT) != b.get(k, ABSENT)]


def diff_lines(old: dict | None, new: dict | None) -> list[str]:
    """The changed rows of one report line, one string each."""
    old, new = old or {}, new or {}
    out = []
    before, after = _rows(old), _rows(new)
    for key in [*before, *(k for k in after if k not in before)]:
        (p, a), (q, b) = before.get(key, (ABSENT, {})), after.get(key, (ABSENT, {}))
        changes = _changes(a, b)
        if p != q or changes:
            name = key[0] if key[1] is None else f"{key[0]} {key[1]!r}"
            out.append(f"{name} pass {_text(p)} -> {_text(q)}"
                       + (": " + ", ".join(changes) if changes else ""))
    rest = _changes({k: v for k, v in old.items() if k != "checks"},
                    {k: v for k, v in new.items() if k != "checks"})
    if rest:
        out.append("report: " + ", ".join(rest))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    with open(argv[0]) as f_old, open(argv[1]) as f_new:
        pairs = list(zip_longest(f_old.read().splitlines(), f_new.read().splitlines()))
    differs = False
    for line, (a, b) in enumerate(pairs, start=1):
        if a == b:
            continue
        differs = True
        rows = diff_lines(a and json.loads(a), b and json.loads(b))
        for row in rows or ["report: bytes differ, values equal"]:
            print(f"{line} {row}")
    return int(differs)


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)     # `| head` ends it quietly
    sys.exit(main(sys.argv[1:]))
