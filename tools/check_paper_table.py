#!/usr/bin/env python3
"""Exact paper-table gate: a bench's tables must match EXPERIMENTS.md.

usage: check_paper_table.py OUTPUT DOC HEADING...

Splits the lines of OUTPUT that start with `|` into blocks of
consecutive rows, one markdown table each. Every block must equal, row
for row and character for character, a whole table in one of DOC's
sections whose heading line starts with one of the HEADINGs (a section
runs up to the next `## ` heading), and every named section must hold at
least one of them. SimEnv runs are deterministic, so any difference
means a documented table no longer matches the binary. Exits 1 with a
unified diff against the closest documented table on a mismatch.
"""

import difflib
import sys


def table_blocks(lines):
    blocks, current = [], []
    for line in lines + [""]:
        if line.startswith("|"):
            current.append(line)
        elif current:
            blocks.append(current)
            current = []
    return blocks


def section(lines, heading):
    start = next((i for i, line in enumerate(lines)
                  if line.startswith(heading)), None)
    if start is None:
        return None
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("## ")), len(lines))
    return lines[start + 1:end]


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_path, doc_path, headings = argv[1], argv[2], argv[3:]
    with open(out_path, encoding="utf-8") as f:
        printed = table_blocks(f.read().splitlines())
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read().splitlines()
    if not printed:
        print(f"{out_path}: no table rows printed", file=sys.stderr)
        return 1
    documented = {}
    for heading in headings:
        body = section(doc, heading)
        if body is None:
            print(f"{doc_path}: no section starting with {heading!r}",
                  file=sys.stderr)
            return 1
        documented[heading] = table_blocks(body)

    failed = False
    used = set()
    for block in printed:
        hits = [h for h, tables in documented.items() if block in tables]
        used.update(hits)
        if hits:
            continue
        failed = True
        closest = max((t for tables in documented.values() for t in tables),
                      default=[], key=lambda t: difflib.SequenceMatcher(
                          None, t, block).ratio())
        print(f"{out_path}: a printed table matches no table in "
              f"{doc_path} under {', '.join(headings)}:", file=sys.stderr)
        sys.stderr.writelines(
            line + "\n" for line in difflib.unified_diff(
                closest, block, doc_path, out_path, lineterm=""))
    for heading in headings:
        if heading not in used:
            failed = True
            print(f"{doc_path}: {heading!r} holds none of the tables "
                  f"{out_path} printed", file=sys.stderr)
    if failed:
        return 1
    print(f"{', '.join(headings)}: {len(printed)} table(s), "
          f"{sum(map(len, printed))} rows match {doc_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
