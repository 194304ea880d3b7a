import numpy as np
import pytest

from qbmotion.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_usage_error_exit_code(capsys):
    assert main(["definitely-not-a-command"]) == 1
    assert main([]) == 1


def test_coeffs_roundtrip(tmp_path):
    code, text = run(tmp_path, "coeffs", "--gamma", "0.0078125", "--omega-c", "40",
                     "--t-max", "2", "-n", "5", "--weak")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "t,A,B,C,D,A_w,B_w,C_w,D_w"
    assert len(lines) == 6
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0] * 9
    # weak mode and the weak columns are one evaluation on the same grid
    code, text = run(tmp_path, "coeffs", "--gamma", "0.0078125", "--omega-c", "40",
                     "--t-max", "2", "-n", "5", "--mode", "weak")
    assert code == 0
    weak = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(weak) == len(lines)
    for row, weak_row in zip(lines[1:], weak[1:]):
        assert row.split(",")[5:] == weak_row.split(",")[1:]


def test_coeffs_matches_library(tmp_path, canonical):
    from qbmotion import coeffs
    from qbmotion.params import ModelVariant

    code, text = run(tmp_path, "coeffs", "--t-min", "1", "--t-max", "1", "-n", "2")
    assert code == 0
    row = [float(x) for x in
           [l for l in text.splitlines() if not l.startswith("#")][1].split(",")]
    ctx = coeffs.evaluation_context(canonical, ModelVariant.ORIGINAL)
    a, b = ctx.drift(1.0)
    c, d = ctx.diffusion(1.0)
    assert row[1:] == pytest.approx([a, b, c, d], rel=1e-14)


def test_deterministic_output(tmp_path):
    _, t1 = run(tmp_path, "coeffs", "--t-max", "3", "-n", "7")
    _, t2 = run(tmp_path, "coeffs", "--t-max", "3", "-n", "7")
    assert t1 == t2


def test_roots_preset_fig5(tmp_path):
    code, text = run(tmp_path, "roots", "--preset", "fig5", "-n", "5")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("gamma,re_z1")
    assert len(lines) == 6
    assert "caldeira-leggett" in text


def test_roots_scan_matches_critical_coupling(tmp_path):
    code, text = run(tmp_path, "roots", "--gamma-min", "0.001", "--gamma-max",
                     "0.025", "-n", "25")
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
    for row in rows:
        g = float(row[0])
        max_re = max(float(row[1]), float(row[3]), float(row[5]))
        assert (max_re < 0) == (g < 0.0125)


def test_q_scan(tmp_path):
    code, text = run(tmp_path, "q-scan", "-n", "8")
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 8
    assert all(float(r[1]) > 1.0 for r in rows)


def test_omega_obs_flags_negative(tmp_path):
    code, text = run(tmp_path, "omega-obs", "--variant", "caldeira-leggett",
                     "--gamma", "5.2", "--t-max", "20", "-n", "200")
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
    flags = {r[3] for r in rows}
    assert flags == {"0", "1"}


def test_propagate_rs_column(tmp_path):
    code, text = run(tmp_path, "propagate", "--t-max", "2", "--stride", "100")
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
    rs = np.array([float(r[6]) for r in rows])
    assert np.all(rs >= 0.25 - 1e-12)


def test_report_csv(tmp_path):
    code, text = run(tmp_path, "report", "--gamma", "0.0078125")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0].startswith("gamma_cr,")
    vals = rows[1].split(",")
    assert float(vals[0]) == pytest.approx(0.0125)


def test_kernel_table(tmp_path):
    code, text = run(tmp_path, "kernel", "--t-max", "1", "-n", "10")
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
    assert all(float(r[1]) < 0 for r in rows)  # eta negative for s > 0


def test_validate_small_grid(tmp_path):
    code, text = run(tmp_path, "validate", "-n", "4", "--t-max", "0.5")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0].startswith("t,A,B,C,D,")


def test_validate_canonical_preset(tmp_path, capsys):
    code, text = run(tmp_path, "validate", "--preset", "canonical")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0] == "t,A,B,C,D,A_oracle,B_oracle,C_oracle,D_oracle"
    assert len(rows) == 51
    assert capsys.readouterr().err.splitlines()[-1] == "PASS"


def test_validate_fails_with_absurd_tolerance(tmp_path):
    code, _ = run(tmp_path, "validate", "-n", "3", "--t-max", "0.5", "--tol", "1e-15")
    assert code == 2


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("Omega_c = 30\ngamma = 0.004\nvariant = original\n")
    code, text = run(tmp_path, "report", "--config", str(cfg), "--gamma", "0.005")
    assert code == 0
    assert "Omega_c=30" in text
    assert "gamma=0.005" in text


def test_preset_subcommand_mismatch(tmp_path, capsys):
    assert main(["coeffs", "--preset", "fig5"]) == 1
