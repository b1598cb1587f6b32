"""The README's fixed CLI examples, byte for byte.

``readme_digests.json`` maps each fixed-input example of the README's CLI
block to the sha256 of its stdout. Every example runs in process through
``cli.main``; a report that changes its bytes fails here until the file is
re-recorded.
"""

import hashlib
import json
from pathlib import Path

import pytest

from affcopy import cli
from test_tooling import _readme_examples

DIGESTS = json.loads((Path(__file__).parent / "readme_digests.json").read_text(encoding="utf-8"))


def test_every_fixed_example_has_a_digest():
    # prop-suite draws its instances from a seed; every other example is fixed
    fixed = [" ".join(argv) for argv in _readme_examples() if argv[0] != "prop-suite"]
    assert list(DIGESTS) == fixed


@pytest.mark.parametrize("command", list(DIGESTS))
def test_readme_example_bytes(command, capsys):
    assert cli.main(command.split()) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == DIGESTS[command]
