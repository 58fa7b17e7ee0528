"""Full runs of the shipped two-bubble preset in both models.

The paper's two-bubble claims: classic coalescence ends as a disc of the
summed area, and the oxide barrier of the modified model holds the film so
that the bubbles merge later. Each run takes minutes, so these tests are
marked `slow` and the default options deselect them; run them with

    PYTHONPATH=src python -m pytest -m slow
"""

import os

import pytest

from foamlbm.config import load_config
from foamlbm.run import run_scenario

from oracles import merged_disc_diameter

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

pytestmark = pytest.mark.slow


def run_preset(model):
    cfg = load_config(os.path.join(CONFIGS, "two_bubble.cfg"))
    cfg.model = model
    return cfg, run_scenario(cfg.validate())


@pytest.fixture(scope="module")
def classic():
    return run_preset("classic")


def test_classic_merges_into_the_equal_area_disc(classic):
    cfg, report = classic
    assert report.merging_time_s is not None
    want = merged_disc_diameter(cfg.bubble_diameter_mm)
    assert abs(report.final_diameter_mm / want - 1.0) < 0.01


def test_modified_merges_later_than_classic(classic):
    _, plain = classic
    _, barred = run_preset("modified")
    assert barred.merging_time_s is not None
    assert barred.merging_time_s > plain.merging_time_s
