import pytest

from cryodrum import config
from cryodrum.errors import ConfigError

SAMPLE = """\
[system]
omega_c = 5.5G
kappa = 250k
kappa_ex = 200k
kappa_0 = 50k
omega_m = 1.8M
gamma_m = 0.045
g0 = 13.4

[baths]
n_c_th = 0.25
n_m_th = 255

[drives.cooling_pump]
cooperativity = 2000
delta = 25k

[drives.red_probe]
gamma_opt = 12.9

[drives.blue_probe]
gamma_opt = 12.9
delta = 10k

[geometry]
radius = 75e-6
bottom_radius = 23e-6
thickness = 180e-9
gap = 180e-9
density = 2700
stress = 350M
youngs_modulus = 75G
xi_par = 0.8
q0 = 4e5
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "device.cfg"
    path.write_text(SAMPLE)
    return path


def test_parse_number_suffixes():
    assert config.parse_number("250k") == 250e3
    assert config.parse_number("1.8M") == 1.8e6
    assert config.parse_number("5.5G") == 5.5e9
    assert config.parse_number("0.045") == 0.045
    assert config.parse_number("75e-6") == 75e-6
    with pytest.raises(ConfigError):
        config.parse_number("fast")
    with pytest.raises(ConfigError):
        config.parse_number("")
    for text in ("nan", "inf", "-inf", "1e308G"):
        with pytest.raises(ConfigError, match="not finite"):
            config.parse_number(text)


def test_load_full_stack(cfg_path):
    cp = config.read_config(cfg_path)
    params = config.load_system(cp)
    assert params.kappa == 250e3
    assert params.eta_kappa == pytest.approx(0.8)
    baths = config.load_baths(cp, params)
    assert baths.n_m_th == 255.0
    assert baths.n_c == pytest.approx(0.05)
    drives = config.load_drives(cp, params)
    assert drives.gamma_tot == pytest.approx(params.gamma_m + 2000 * 0.045,
                                             rel=1e-12)
    assert drives.tone("blue_probe").delta == 10e3
    geom = config.load_geometry(cp)
    assert geom.radius == 75e-6
    assert geom.xi_par == 0.8


def test_temperature_bath(tmp_path):
    path = tmp_path / "t.cfg"
    path.write_text(SAMPLE.replace("n_m_th = 255", "temperature = 0.011"))
    cp = config.read_config(path)
    params = config.load_system(cp)
    baths = config.load_baths(cp, params)
    assert baths.n_m_th == pytest.approx(126.84, abs=0.01)


def test_missing_file_and_section(tmp_path):
    with pytest.raises(ConfigError):
        config.read_config(tmp_path / "nope.cfg")
    path = tmp_path / "empty.cfg"
    path.write_text("[baths]\nn_m_th = 1\n")
    cp = config.read_config(path)
    with pytest.raises(ConfigError):
        config.load_system(cp)


def test_kappa_sum_fallback(tmp_path):
    text = SAMPLE.replace("kappa = 250k\n", "")
    path = tmp_path / "s.cfg"
    path.write_text(text)
    params = config.load_system(config.read_config(path))
    assert params.kappa == pytest.approx(250e3)


def test_geometry_missing_key(tmp_path, capsys):
    from cryodrum.cli import main

    path = tmp_path / "s.cfg"
    path.write_text(SAMPLE.replace("radius = 75e-6\n", ""))
    with pytest.raises(ConfigError, match=r"^\[geometry\] missing key "
                                          r"'radius'$"):
        config.load_geometry(config.read_config(path))
    out = tmp_path / "figures.csv"
    assert main(["device", "--config", str(path), "--out", str(out)]) == 2
    assert "[geometry] missing key 'radius'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["youngs_modulus", "xi_par", "q0"])
def test_geometry_missing_material_key(key, tmp_path, capsys):
    # Y, xi_par and Q_0 have no default: every device figure set needs them
    from cryodrum.cli import main

    path = tmp_path / "s.cfg"
    line = next(line for line in SAMPLE.splitlines()
                if line.startswith(key + " ="))
    path.write_text(SAMPLE.replace(line + "\n", ""))
    with pytest.raises(ConfigError,
                       match=rf"^\[geometry\] missing key '{key}'$"):
        config.load_geometry(config.read_config(path))
    assert main(["device", "--config", str(path), "--out",
                 str(tmp_path / "figures.csv")]) == 2
    assert f"[geometry] missing key '{key}'" in capsys.readouterr().err


def test_geometry_omitted_optional_key_takes_the_field_default(tmp_path):
    from cryodrum.device import DrumGeometry

    # dilution_a and dilution_b omitted, an unknown key ignored: the
    # dataclass holds the defaults
    path = tmp_path / "s.cfg"
    path.write_text(SAMPLE + "colour = 1\n")
    geom = config.load_geometry(config.read_config(path))
    assert geom == DrumGeometry(
        radius=75e-6, bottom_radius=23e-6, thickness=180e-9, gap=180e-9,
        density=2700.0, stress=350e6, youngs_modulus=75e9, xi_par=0.8,
        q0=4e5)
    assert (geom.dilution_a, geom.dilution_b) == (2.0, 0.0)
