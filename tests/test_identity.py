"""The bit-identity harness, `tests/identity.py`, on a few steps of the
golden overlapping-zones world.  The harness runs here as it does on two
trees, so a rename of a package name it reads fails these tests."""

import pathlib
import shutil

import identity

ROOT = pathlib.Path(__file__).parent.parent
CASE = {"overlapping_zones": 10}


def test_a_tree_is_identical_to_itself(capsys):
    assert identity.compare(ROOT, ROOT, CASE) == 0
    out = capsys.readouterr().out
    assert "overlapping_zones: identical after the build and each of 10 " \
        "steps, 10 fields each" in out


def test_a_wider_seed_disc_edge_differs_from_the_build(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run_py = tmp_path / "src" / "foamlbm" / "run.py"
    text = run_py.read_text()
    assert "DISC_EDGE_CELLS = 2.0\n" in text
    run_py.write_text(text.replace("DISC_EDGE_CELLS = 2.0\n",
                                   "DISC_EDGE_CELLS = 2.5\n"))
    assert identity.compare(ROOT, tmp_path, CASE) == 1
    assert capsys.readouterr().out == (
        "first difference: case overlapping_zones, step build, "
        "field melt populations\n")


def test_a_tree_without_the_package_cannot_run(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    assert identity.compare(ROOT, tmp_path, CASE) == 2
    assert "cannot run it" in capsys.readouterr().out
