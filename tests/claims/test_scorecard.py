"""The scorecard cannot drift: every experiment row of ``EXPERIMENTS.md``
and of the ``DESIGN.md`` index names tier-1 tests that exist, and
``EXPERIMENTS.md`` quotes no wall-clock figure."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXPERIMENTS = (
    ["FIG2", "FIG3", "FIG4"] + [f"C{n}" for n in range(1, 13)]
    + ["A1", "A2", "E1", "E2"]
)
ROW = re.compile(r"^\|\s*(FIG\d+|[CAE]\d+)\s*\|")
TEST_REF = re.compile(r"`(tests/[\w/]+\.py)::(\w+(?:::\w+)?)`")


def rows_of(document):
    rows = {}
    for line in (ROOT / document).read_text().splitlines():
        match = ROW.match(line)
        if match:
            rows[match.group(1)] = line
    return rows


@pytest.mark.parametrize("document", ["EXPERIMENTS.md", "DESIGN.md"])
def test_every_experiment_row_names_existing_tests(document):
    rows = rows_of(document)
    assert not set(EXPERIMENTS) - set(rows), "experiment rows missing"
    for exp_id, line in rows.items():
        refs = TEST_REF.findall(line)
        assert refs, f"{document} {exp_id}: no tests/<path>.py::<name> named"
        for path, names in refs:
            source = (ROOT / path).read_text()
            for name in names.split("::"):
                assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), \
                    f"{document} {exp_id}: {path} has no {name}"


def test_experiments_md_quotes_no_wall_clock_number():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    assert not re.findall(r"\b\d+(?:\.\d+)?\s?(?:ms|s|sec|seconds|min)\b", text)
