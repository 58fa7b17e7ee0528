"""Each benchmark check passes on sound input and fails on a broken one.

A check that cannot fail proves nothing, so every test below breaks its
input in the way the check exists to catch.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from foamlbm.metrics import FieldSnapshot, measure, mirror_tile  # noqa: E402
from foamlbm.output import read_csv, write_csv, write_pgm, write_vtk  # noqa: E402


def _snapshot(nx=6, ny=5, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.zeros((nx, ny), dtype=np.int64)
    labels[1:3, 1:3] = 1
    labels[4:, 3:] = 2
    return FieldSnapshot(step=3, time_s=3e-5,
                         rho_melt=rng.random((nx, ny)),
                         rho_gas=rng.random((nx, ny)),
                         pressure=rng.random((nx, ny)),
                         velocity=rng.standard_normal((2, nx, ny)) * 1e-3,
                         labels=labels)


def test_mass_conserved_fails_when_mass_is_removed():
    f = np.full((9, 8, 8), 0.1)
    before = f.sum()
    checks.mass_conserved(before, f.sum(), "melt")
    f[3, 2, 2] -= 1e-6
    with pytest.raises(CheckFailed):
        checks.mass_conserved(before, f.sum(), "melt")


def test_gas_injection_follows_the_config_not_the_counter():
    moles = checks.expected_moles(dn_dt=100.0, dt=1e-5, budget=1.9697,
                                  steps=385)
    assert moles == pytest.approx(0.385)
    assert checks.expected_moles(100.0, 1e-5, 0.01, 385) == 0.01
    gained = 100.0 * moles * 3.0
    checks.gas_injection(5000.0, 5000.0 + gained, 100.0, moles, moles)
    with pytest.raises(CheckFailed):
        # the program's counter agrees with the mass, but not with the config
        checks.gas_injection(5000.0, 5000.0 + gained * 1.01, 100.0, moles,
                             moles * 1.01)
    with pytest.raises(CheckFailed):
        checks.gas_injection(5000.0, 5000.0 + gained * 1.001, 100.0, moles,
                             moles)


def test_mole_ledger_fails_when_moles_go_missing():
    checks.mole_ledger([0.1, 0.2, 0.085], 0.385)
    with pytest.raises(CheckFailed):
        checks.mole_ledger([0.1, 0.2], 0.385)


def test_no_negative_populations_fails_on_one_negative_entry():
    f = np.full((9, 4, 4), 0.1)
    checks.no_negative_populations(f, f)
    f[7, 1, 2] = -1e-12
    with pytest.raises(CheckFailed):
        checks.no_negative_populations(np.abs(f), f)


def test_owner_partition_fails_on_two_components_under_one_id():
    mask = np.zeros((8, 8), dtype=bool)
    mask[1:3, 1:3] = True
    mask[5:7, 5:7] = True
    owner = np.zeros((8, 8), dtype=np.int64)
    owner[1:3, 1:3] = 4
    owner[5:7, 5:7] = 9
    checks.owner_partition(owner, mask)
    owner[5:7, 5:7] = 4
    with pytest.raises(CheckFailed):
        checks.owner_partition(owner, mask)


def test_owner_partition_fails_when_one_component_is_split():
    mask = np.zeros((8, 8), dtype=bool)
    mask[1:3, 1:5] = True
    owner = np.where(mask, 2, 0)
    checks.owner_partition(owner, mask)
    owner[1:3, 3:5] = 3
    with pytest.raises(CheckFailed):
        checks.owner_partition(owner, mask)


def test_owner_partition_fails_when_cells_differ_from_the_mask():
    mask = np.zeros((8, 8), dtype=bool)
    mask[1:3, 1:3] = True
    owner = np.where(mask, 1, 0)
    owner[3, 1] = 1
    with pytest.raises(CheckFailed):
        checks.owner_partition(owner, mask)


def test_nucleation_sites_fail_below_min_spacing():
    sites = [(10, 10), (50, 10), (10, 50)]
    checks.nucleation_sites(sites, 3, 30.0, (100, 100))
    with pytest.raises(CheckFailed):
        checks.nucleation_sites(sites + [(30, 30)], 4, 30.0, (100, 100))
    with pytest.raises(CheckFailed):
        checks.nucleation_sites(sites, 4, 30.0, (100, 100))
    with pytest.raises(CheckFailed):
        checks.nucleation_sites([(10, 10), (120, 10)], 2, 30.0, (100, 100))


def _film(nx=40, ny=11):
    # two bubbles on one row with a 5-cell melt gap centred at x = 19.5;
    # 5 cells sit inside the window where the pressure test is armed
    owner = np.zeros((nx, ny), dtype=np.int64)
    owner[5:17, 2:9] = 1
    owner[22:34, 2:9] = 2
    X = np.arange(nx, dtype=float)[:, None] * np.ones((1, ny))
    flat = 0.1 * X
    curved = np.exp(-0.5 * (X - 19.5) ** 2)
    return owner, flat, curved


def test_film_verdict_reads_the_profile():
    owner, flat, curved = _film()
    assert checks.film_verdict(owner, flat, 1, 2, 0.05) is True
    assert checks.film_verdict(owner, curved, 1, 2, 0.05) is False
    assert checks.film_verdict(owner, flat, 1, 3, 0.05) is None


def test_film_states_fail_on_a_ruptured_film_with_a_curved_profile():
    owner, flat, curved = _film()
    checks.film_states(owner, flat, {(1, 2): 0}, [(1, 2)], 0.05)
    with pytest.raises(CheckFailed):
        checks.film_states(owner, curved, {(1, 2): 0}, [(1, 2)], 0.05)


def test_film_states_fail_on_a_standing_film_with_a_flat_profile():
    owner, flat, curved = _film()
    checks.film_states(owner, curved, {(1, 2): 1}, [], 0.05)
    with pytest.raises(CheckFailed):
        checks.film_states(owner, flat, {(1, 2): 1}, [], 0.05)


def test_film_verdict_matches_the_gap_rules():
    owner, flat, curved = _film()
    thin = owner.copy()
    thin[17:20, 2:9] = 1            # 2-cell gap: opens unconditionally
    assert checks.film_verdict(thin, curved, 1, 2, 0.05) is True
    wide = np.zeros_like(owner)
    wide[2:12, 2:9] = 1
    wide[28:38, 2:9] = 2            # 16-cell gap: holds regardless
    assert checks.film_verdict(wide, flat, 1, 2, 0.05) is False


def test_stop_reason_and_two_bubbles():
    checks.stop_reason("first rupture", "first rupture")
    with pytest.raises(CheckFailed):
        checks.stop_reason("step cap", "first rupture")
    checks.two_bubbles(2, 0)
    with pytest.raises(CheckFailed):
        checks.two_bubbles(1, 1)


def test_snapshot_roundtrip_fails_on_one_altered_digit(tmp_path):
    snap = _snapshot()
    path = tmp_path / "snap.csv"
    write_csv(snap, path)
    checks.snapshot_roundtrip(snap, read_csv(path))
    lines = path.read_text().splitlines()
    row = lines[7].split(",")
    digits = row[3]
    # the tenth significant digit: far above the 17-digit rounding slack
    pos = [i for i, ch in enumerate(digits) if ch.isdigit()][10]
    row[3] = digits[:pos] + str((int(digits[pos]) + 1) % 10) \
        + digits[pos + 1:]
    lines[7] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        checks.snapshot_roundtrip(snap, read_csv(path))


def test_pgm_file_fails_on_a_short_payload(tmp_path):
    path = tmp_path / "snap.pgm"
    write_pgm(np.arange(30.0).reshape(6, 5), path)
    checks.pgm_file(path, 6, 5)
    with pytest.raises(CheckFailed):
        checks.pgm_file(path, 5, 6)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CheckFailed):
        checks.pgm_file(path, 6, 5)


def test_vtk_file_fails_on_a_missing_point(tmp_path):
    path = tmp_path / "snap.vtk"
    write_vtk(_snapshot(), path)
    checks.vtk_file(path, 6, 5)
    lines = path.read_text().splitlines()
    del lines[20]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        checks.vtk_file(path, 6, 5)


def test_same_metrics_fails_when_the_label_map_changes():
    snap = _snapshot()
    a = measure(snap, 0.1, 2.7, 0.09, exclude_edge_bubbles=False)
    checks.same_metrics(a, measure(snap, 0.1, 2.7, 0.09,
                                   exclude_edge_bubbles=False))
    snap.labels[0, 0] = 3
    with pytest.raises(CheckFailed):
        checks.same_metrics(a, measure(snap, 0.1, 2.7, 0.09,
                                       exclude_edge_bubbles=False))


def test_mirror_tiling_fails_without_mirror_symmetry():
    field = np.arange(30.0).reshape(6, 5)
    tiled = mirror_tile(field, (2, 3))
    checks.mirror_tiling(field, tiled, 2, 3)
    with pytest.raises(CheckFailed):
        checks.mirror_tiling(field, np.tile(field, (2, 3)), 2, 3)
    with pytest.raises(CheckFailed):
        checks.mirror_tiling(field, tiled[:, :-1], 2, 3)
