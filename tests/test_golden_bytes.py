"""Seeded training and `recnet verify` reproduce the committed golden bytes.

A refactor that keeps behaviour must leave every checkpoint, metrics log
and verify report byte for byte as it was; see record_golden.py for the
commands and for how to re-record after a change that alters them on
purpose.
"""

import json
import os

import pytest

from record_golden import ENTRIES, GOLDEN, RECORD_COMMAND, environment, record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_entry(golden):
    assert list(golden["entries"]) == ENTRIES
    assert set(golden["environment"]) == {"numpy", "blas", "cpu"}


def _check(golden, got, name):
    want = golden["entries"].get(name)
    if got != want:
        pytest.fail(
            f"golden bytes of {name!r} differ\n"
            f"  recorded: {want}\n    in {golden['environment']}\n"
            f"  now:      {got}\n    in {environment()}\n"
            f"If the change alters these bytes on purpose, re-record with "
            f"`{RECORD_COMMAND}` and say why in the commit.")


@pytest.mark.parametrize("name", ENTRIES)
def test_bytes_match_the_golden_file(golden, tmp_path, name):
    _check(golden, record(name, tmp_path), name)


def test_bytes_match_on_one_cpu(golden, tmp_path):
    """recnet cuts a batch larger than one block into one slice per CPU of
    its affinity and trains them data-parallel: pinned to one CPU it runs
    the whole batch in one slice, and writes the same bytes as on every
    CPU. This entry's batch of 64 is larger than one block."""
    name = "separate-bn-2,4,4,4,3,3,3"
    _check(golden, record(name, tmp_path, cpu=min(os.sched_getaffinity(0))), name)
