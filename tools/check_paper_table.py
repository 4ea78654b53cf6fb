#!/usr/bin/env python3
"""Exact paper-table gate: a bench's table must match EXPERIMENTS.md.

usage: check_paper_table.py BENCH_OUTPUT DOC SECTION_HEADING

Takes the markdown table rows (lines starting with `|`) that a paper
bench printed to BENCH_OUTPUT and requires them to appear contiguously,
in order and character for character, in DOC's section whose heading
line starts with SECTION_HEADING (up to the next `## ` heading). SimEnv
runs are deterministic, so any difference means the documented table no
longer matches the binary. Exits 1 with a unified diff on a mismatch.
"""

import difflib
import sys


def table_rows(lines):
    return [line for line in lines if line.startswith("|")]


def section(lines, heading):
    start = next((i for i, line in enumerate(lines)
                  if line.startswith(heading)), None)
    if start is None:
        return None
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("## ")), len(lines))
    return lines[start + 1:end]


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench_path, doc_path, heading = argv[1:]
    with open(bench_path, encoding="utf-8") as f:
        printed = table_rows(f.read().splitlines())
    with open(doc_path, encoding="utf-8") as f:
        body = section(f.read().splitlines(), heading)
    if not printed:
        print(f"{bench_path}: no table rows printed", file=sys.stderr)
        return 1
    if body is None:
        print(f"{doc_path}: no section starting with {heading!r}",
              file=sys.stderr)
        return 1
    n = len(printed)
    if any(body[i:i + n] == printed for i in range(len(body) - n + 1)):
        print(f"{heading}: {n} table rows match {doc_path}")
        return 0
    documented = table_rows(body)
    print(f"{heading}: the table in {doc_path} differs from {bench_path}:",
          file=sys.stderr)
    sys.stderr.writelines(
        line + "\n" for line in difflib.unified_diff(
            documented, printed, doc_path, bench_path, lineterm=""))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
