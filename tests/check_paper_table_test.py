#!/usr/bin/env python3
"""Self-test of tools/check_paper_table.py on the fixtures in
tests/check_paper_table/: the gate passes on a match and fails on every
kind of drift. Run directly or through ctest (check_paper_table_test)."""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "..", "tools", "check_paper_table.py")
FIXTURES = os.path.join(HERE, "check_paper_table")


def check(output, *headings):
    return subprocess.run(
        [sys.executable, CHECKER, os.path.join(FIXTURES, output),
         os.path.join(FIXTURES, "doc.md"), *headings],
        capture_output=True, text=True).returncode


class CheckPaperTableTest(unittest.TestCase):
    def test_match_passes(self):
        self.assertEqual(check("match.txt", "## Table 1", "## Table 2"), 0)

    def test_one_cell_change_fails(self):
        self.assertEqual(
            check("one_cell.txt", "## Table 1", "## Table 2"), 1)

    def test_second_block_matching_nowhere_fails(self):
        # Its second table is documented, but outside the named section.
        self.assertEqual(check("extra_block.txt", "## Table 1"), 1)

    def test_dropped_row_fails(self):
        # A printed table must equal a whole documented table.
        self.assertEqual(
            check("dropped_row.txt", "## Table 1", "## Table 2"), 1)

    def test_missing_heading_fails(self):
        self.assertEqual(check("match.txt", "## Table 1", "## Table 9"), 1)

    def test_named_section_without_a_table_fails(self):
        self.assertEqual(
            check("match.txt", "## Table 1", "## Table 2", "## Notes"), 1)

    def test_no_rows_printed_fails(self):
        self.assertEqual(check("no_rows.txt", "## Table 1"), 1)


if __name__ == "__main__":
    unittest.main()
