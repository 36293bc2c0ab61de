"""``scripts/updates_study.py`` at its quick size: every cell of both tables is finite."""

import importlib.util
import math
import pathlib
import re

import numpy as np
import pytest

from robustgram import covariance, gram

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "updates_study.py"


@pytest.fixture(scope="module")
def study():
    spec = importlib.util.spec_from_file_location("updates_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cells(lines):
    """The numbers in the body rows of a markdown table, shape names left out."""
    return [float(x) for line in lines[2:] for cell in line.split("|")[2:]
            for x in re.findall(r"[-+]?\d[\d.e+-]*|nan|inf", cell)]


def test_quick_tables_are_finite(study):
    updates = (1, 2, 4)
    shapes = study.shapes(quick=True)
    assert [shape.name for shape in shapes] == ["reference", "estimate-tall", "cov-tall", "t3",
                                                "t3-cov", "wide-mixture", "grid-certified"]
    assert {shape.default for shape in shapes} == {gram.NUM_UPDATES, covariance.NUM_UPDATES}
    rows = [(shape, study.errors(shape, updates)) for shape in shapes]
    for _, errs in rows:
        assert errs.shape == (len(errs), len(updates)) and len(errs) >= 2
        assert np.isfinite(errs).all()
        assert all(map(math.isfinite, study.paired(errs, 2)))
    table = study.error_table(rows, updates)
    assert len(table) == 2 + len(shapes)
    assert all(map(math.isfinite, cells(table)))
    drift = study.drift_table([(shape, study.drift(shape, 3)) for shape in shapes])
    assert len(drift) == 2 + len(shapes)
    assert all(map(math.isfinite, cells(drift)))


def test_check_compares_one_update_with_four(study):
    # errors at 1, 2 and 4 updates of three runs
    better_at_four = np.array([[1.0, 1.0, 0.5], [1.1, 1.0, 0.6], [0.9, 1.0, 0.4]])
    assert not study.one_update_holds(better_at_four, (1, 2, 4))
    assert study.one_update_holds(better_at_four[:, ::-1], (1, 2, 4))


def test_failed_check_counts_where_the_default_is_one_update(study):
    # errors at 1, 2, 4 and 8 updates of two runs, lower at 4 by 0.5 +- 0.05
    better_at_four = np.array([[1.0, 1.0, 0.5, 0.5], [1.1, 1.0, 0.55, 0.5]])
    for default, held in ((4, True), (1, False)):
        shape = study.Shape("shape", [], default)
        assert study.defaults_hold([(shape, better_at_four)]) is held
