"""``scripts/make_fixtures.py`` rebuilds the committed fixtures.

The script is loaded read-only (no bytecode is written beside it) and
each of its builders is emitted in memory and compared with the file
under ``fixtures/``; nothing is written.
"""

import json

import pytest

from conftest import FIXTURE_DIR, REPO, load_module
from koszul.fixtures import emit_fixture
from koszul.report import report_diff


def load_make_fixtures():
    return load_module("make_fixtures", REPO / "scripts" / "make_fixtures.py")


@pytest.mark.parametrize("fid", ["f0", "f1", "f3", "f1b"])
def test_builder_reproduces_the_committed_fixture(fid):
    fx = getattr(load_make_fixtures(), f"build_{fid}")()
    assert emit_fixture(fx) == (FIXTURE_DIR / f"{fid}.json").read_text()


def test_builder_reproduces_f2_up_to_one_vanishing_coefficient():
    # the committed f2 holds one real part of -3.9e-19 in H that the
    # builder now gives as 0.0; every other number matches exactly
    fx = load_make_fixtures().build_f2()
    built = json.loads(emit_fixture(fx))
    committed = json.loads((FIXTURE_DIR / "f2.json").read_text())
    assert report_diff(built, committed, atol=1e-18) == []
    assert report_diff(built, committed, atol=0.0) == [
        "/H[2][0][1][0]: 0.0 vs -3.9481564546323898e-19 differ by more than 0.0"
    ]
