"""The golden CLI corpus: every argv of ``cli_corpus`` prints exactly its committed text.

A declared output change is made with ``python tests/cli_corpus.py --update``, and
the diff of ``cli_corpus.expected`` then shows it line by line.
"""

from __future__ import annotations

import cli_corpus


def test_output_matches_the_committed_corpus():
    expected = cli_corpus.EXPECTED.read_text(encoding="utf-8")
    changes = cli_corpus.diff(expected, cli_corpus.render())
    assert not changes, changes
