"""Config parsing and invariant validation."""

import dataclasses
import math
import os

import pytest

from foamlbm.config import (_PARSERS, STOP_RULES, ConfigError,
                            SimulationConfig, load_config)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINIMAL = """\
scenario = two_bubble
nx = 64
ny = 64
bubble_diameter_mm = 2
"""


# every field away from its default, and still valid
NON_DEFAULT = SimulationConfig(
    scenario="foam", nx=96, ny=80, G=-4.3, tau_melt=0.9, tau_gas=1.2,
    rho_melt=1.6, rho_gas=0.2, rho_background=0.04, nucleation_count=4,
    nucleation_seed=7, min_spacing=30.0, nucleation_radius=2, growth_A=0.5,
    growth_dn_dt=0.002, growth_budget=1.5, dx=2e-4, dt=2e-5,
    rho_melt_phys=2.68, rho_gas_phys=0.0001, barrier_r_z=4,
    barrier_eps_p=2e-3, model="classic", output_cadence=50,
    output_formats=("pgm", "vtk"), stop_rule="first_rupture", max_steps=500,
    bubble_diameter_mm=6.0, bubble_gap_cells=4.0,
    approach_mm_s=2.0, approach_force=1e-5, exclude_edge_bubbles=False,
    histogram_bin_mm=0.25)


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.scenario == "two_bubble"
        assert (cfg.nx, cfg.ny) == (64, 64)
        assert cfg.G == -4.5
        assert cfg.model == "modified"
        assert cfg.output_formats == ("csv",)
        assert cfg.exclude_edge_bubbles is True

    def test_comments_blanks_and_types(self, tmp_path):
        text = """
        # foam preset, trimmed
        scenario = foam   # inline comment
        nx = 96
        ny = 48

        G = -4.3
        nucleation_count = 3
        output_formats = csv, pgm
        exclude_edge_bubbles = no
        stop_rule = steps
        max_steps = 10
        """
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.G == -4.3
        assert cfg.nucleation_count == 3
        assert cfg.output_formats == ("csv", "pgm")
        assert cfg.exclude_edge_bubbles is False
        assert cfg.stop_rule == "steps"

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "grav = 9.81\n")
        with pytest.raises(ConfigError, match=r":5: unknown key 'grav'"):
            load_config(path)
        # walls are always mirrors; there is no boundary to choose
        path = write_cfg(tmp_path, MINIMAL + "boundary = mirror\n")
        with pytest.raises(ConfigError, match=r":5: unknown key 'boundary'"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "nx = 32\n")
        with pytest.raises(ConfigError, match="duplicate key 'nx'"):
            load_config(path)

    def test_missing_equals_sign(self, tmp_path):
        path = write_cfg(tmp_path, "scenario foam\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            load_config(path)

    def test_empty_file(self, tmp_path):
        path = write_cfg(tmp_path, "# nothing but comments\n\n")
        with pytest.raises(ConfigError, match="empty config"):
            load_config(path)

    def test_missing_required_keys(self, tmp_path):
        path = write_cfg(tmp_path, "scenario = foam\nnx = 64\n")
        with pytest.raises(ConfigError, match="missing required keys: ny"):
            load_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "scenario = foam\nnx = many\nny = 64\n")
        with pytest.raises(ConfigError, match=r":2: bad value for nx"):
            load_config(path)


    def test_round_trip_of_every_field(self, tmp_path):
        lines = []
        for f in dataclasses.fields(SimulationConfig):
            value = getattr(NON_DEFAULT, f.name)
            assert value != f.default, f.name
            if isinstance(value, tuple):
                value = ", ".join(value)
            elif isinstance(value, bool):
                value = "yes" if value else "no"
            lines.append("%s = %s" % (f.name, value))
        path = write_cfg(tmp_path, "\n".join(lines) + "\n")
        assert load_config(path) == NON_DEFAULT


class TestValidate:
    def base(self, **over):
        kw = dict(scenario="foam", nx=64, ny=64, nucleation_count=1)
        kw.update(over)
        return SimulationConfig(**kw)

    def test_validate_returns_self(self):
        cfg = self.base()
        assert cfg.validate() is cfg

    def test_melt_density_must_clear_critical(self):
        # G = -4.5 separates; a 0.5 melt density sits below ln 2
        cfg = self.base(rho_melt=0.5, rho_gas=0.2)
        with pytest.raises(ConfigError, match="must exceed ln 2"):
            cfg.validate()
        assert math.log(2) > 0.5  # the invariant the message refers to

    def test_gas_density_must_stay_below_critical(self):
        cfg = self.base(rho_gas=0.8)
        with pytest.raises(ConfigError, match="below ln 2"):
            cfg.validate()

    def test_melt_plateau_outside_the_spinodal(self):
        # at G = -4.5, exp(-rho) = (1 +- sqrt(1 + 4/G)) / 2 puts the
        # spinodal at (ln 1.5, ln 3); the preset's plateau lies above it
        cfg = load_config(os.path.join(CONFIGS, "foam.cfg"))
        cfg.rho_melt = 0.9
        with pytest.raises(ConfigError, match=r"\(0\.4055, 1\.0986\)"):
            cfg.validate()
        assert (math.log(1.5), math.log(3.0)) == pytest.approx(
            (0.4055, 1.0986), abs=5e-5)
        for preset in ("foam.cfg", "two_bubble.cfg"):
            load_config(os.path.join(CONFIGS, preset))
        # above the critical G there is no spinodal to avoid
        self.base(G=-3.0, rho_melt=0.9, rho_gas=0.2).validate()

    def test_density_ordering(self):
        cfg = self.base(G=-3.0, rho_melt=0.3, rho_gas=0.4)
        with pytest.raises(ConfigError, match="exceed rho_gas"):
            cfg.validate()

    def test_tau_lower_bound(self):
        with pytest.raises(ConfigError, match="tau_melt must exceed 0.5"):
            self.base(tau_melt=0.5).validate()

    def test_grid_floor(self):
        with pytest.raises(ConfigError, match="grid too small"):
            self.base(nx=4).validate()

    def test_enum_checks(self):
        with pytest.raises(ConfigError, match="scenario"):
            self.base(scenario="triple_point").validate()
        with pytest.raises(ConfigError, match="scenario"):
            self.base(scenario="custom").validate()
        with pytest.raises(ConfigError, match="model"):
            self.base(model="hybrid").validate()
        with pytest.raises(ConfigError, match="stop_rule"):
            self.base(stop_rule="never").validate()

    def test_two_stop_rules_and_steps_by_default(self):
        # a bubble at rest keeps a spurious current near 0.07, so no
        # velocity threshold can end a run with a bubble in it
        assert STOP_RULES == ("first_rupture", "steps")
        assert self.base().stop_rule == "steps"

    def test_growth_nonnegative(self):
        with pytest.raises(ConfigError, match="growth"):
            self.base(growth_budget=-1.0).validate()
        with pytest.raises(ConfigError, match="nucleation_seed"):
            self.base(nucleation_seed=-1).validate()

    @pytest.mark.parametrize("name, bad, rule", [
        (name, bad, "positive") for bad in (0.0, -1.0) for name in (
            "rho_melt", "rho_gas", "rho_background", "dx", "dt",
            "rho_melt_phys", "rho_gas_phys", "barrier_eps_p",
            "bubble_diameter_mm", "bubble_gap_cells",
            "histogram_bin_mm")] + [
        (name, -1, "nonnegative") for name in (
            "nucleation_seed", "nucleation_radius", "max_steps", "growth_A",
            "growth_dn_dt", "growth_budget", "approach_force",
            "output_cadence")] + [
        ("nucleation_count", 0, "at least 1"),
        ("barrier_r_z", 0, "at least 1")])
    def test_lower_bounds(self, name, bad, rule):
        # the only such checks: UnitScales takes dx and the physical
        # densities as they are, and nucleate its count
        with pytest.raises(ConfigError,
                           match="^%s must be %s$" % (name, rule)):
            self.base(**{name: bad}).validate()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", sorted(
        name for name, parse in _PARSERS.items() if parse is float))
    def test_float_fields_must_be_finite(self, name, value):
        # NaN fails no `<=` test, so without this check a tau_melt = nan
        # preset would run to its step cap and report an empty foam
        with pytest.raises(ConfigError,
                           match="^%s must be a finite number$" % name):
            self.base(**{name: float(value)}).validate()

    def test_gas_budget_needs_a_release_rate(self):
        # at a zero rate the budget is never injected, yet the report
        # would print the porosity target that the budget implies
        with pytest.raises(ConfigError, match=r"growth_budget = 1 is never "
                                              r"released at growth_dn_dt = 0"):
            self.base(growth_A=10.0, growth_budget=1.0).validate()
        self.base(growth_A=10.0, growth_budget=1.0,
                  growth_dn_dt=1.0).validate()
        self.base(growth_A=10.0).validate()

    def test_histogram_bin_at_least_a_cell(self):
        # dx = 1e-4 m is a 0.1 mm cell
        with pytest.raises(ConfigError, match="histogram_bin_mm must be at "
                                              "least the cell size"):
            self.base(histogram_bin_mm=0.05).validate()
        self.base(histogram_bin_mm=0.1).validate()
        self.base(histogram_bin_mm=0.05, dx=5e-5).validate()

    def test_approach_speed_within_the_velocity_envelope(self):
        # dt = dx = 1e-4 carries 1000 mm/s as one cell per step, so the
        # 0.3 envelope is 300 mm/s either way
        fast = dict(scenario="two_bubble", dx=1e-4, dt=1e-4,
                    bubble_diameter_mm=2.0)
        for speed in (301.0, -301.0):
            with pytest.raises(ConfigError, match="approach_mm_s = %g is "
                               "0.301 cells per step, above the velocity "
                               "envelope of 0.3" % speed):
                self.base(approach_mm_s=speed, **fast).validate()
        self.base(approach_mm_s=300.0, **fast).validate()
        # a foam run never reads the approach speed
        self.base(approach_mm_s=301.0, dx=1e-4, dt=1e-4).validate()

    @pytest.mark.parametrize("gap", [-6.0, 0.0])
    def test_bubble_gap_must_be_positive(self, gap):
        # at a gap of 0 or less the two seeded discs touch or overlap, and
        # the second paints over cells of the first
        cfg = self.base(scenario="two_bubble", bubble_gap_cells=gap)
        with pytest.raises(ConfigError,
                           match="bubble_gap_cells must be positive"):
            cfg.validate()
        self.base(scenario="two_bubble", bubble_gap_cells=0.5,
                  bubble_diameter_mm=2.0).validate()

    def test_two_bubble_discs_must_fit_the_grid(self):
        # 2 mm discs on 0.1 mm cells have a radius of 10 cells: two of them
        # and a gap of 24 cells span 64 cells along x, one spans 20 along y
        fit = dict(scenario="two_bubble", bubble_diameter_mm=2.0,
                   bubble_gap_cells=24.0)
        self.base(**fit).validate()
        self.base(ny=20, **fit).validate()
        for over in (dict(nx=63), dict(ny=19), dict(bubble_gap_cells=24.5)):
            cfg = self.base(**dict(fit, **over))
            with pytest.raises(ConfigError, match=(
                    r"bubble_diameter_mm = 2, bubble_gap_cells = %g apart, "
                    r"do not fit the %d x %d grid"
                    % (cfg.bubble_gap_cells, cfg.nx, cfg.ny))):
                cfg.validate()
        # a foam run seeds no such discs
        self.base(bubble_diameter_mm=8.0).validate()

    def test_nuclei_must_fit_the_grid(self):
        # sites 20 apart centre disjoint discs of diameter 20 inside the
        # 64 x 64 grid grown by 10 cells: 83^2 / (100 pi) holds 21 of them
        self.base(nucleation_count=21, min_spacing=20.0).validate()
        with pytest.raises(ConfigError, match=(
                r"^nucleation_count = 22 sites do not fit min_spacing = 20 "
                r"apart on the 64 x 64 grid: ")):
            self.base(nucleation_count=22, min_spacing=20.0).validate()
        for s in (0.0, -1.0):
            with pytest.raises(ConfigError,
                               match="^min_spacing must be positive$"):
                self.base(min_spacing=s).validate()
        # a two-bubble run nucleates nothing
        self.base(scenario="two_bubble", nucleation_count=10 ** 6,
                  bubble_diameter_mm=2.0).validate()

    def test_unplaceable_nuclei_are_rejected_at_once(self):
        # nucleate would make 100 draws per site before giving up: 25 s
        # at 20000 sites, and more than two minutes at 200000
        cfg = load_config(os.path.join(CONFIGS, "foam.cfg"))
        for count in (20000, 200000, 10 ** 12):
            cfg.nucleation_count = count
            with pytest.raises(ConfigError, match=(
                    "^nucleation_count = %d sites do not fit min_spacing = "
                    "30 apart on the 375 x 250 grid: " % count)):
                cfg.validate()

    def test_unknown_output_format(self):
        with pytest.raises(ConfigError, match="unknown output format 'png'"):
            self.base(output_formats=("csv", "png")).validate()
        self.base(output_formats=("csv", "pgm", "vtk")).validate()
