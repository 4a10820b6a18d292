"""End-to-end command-line runs: files, determinism, exit codes."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from momentforge import QuadratureError
from momentforge import verify as verify_module
from momentforge.cli import (
    _trace_from_payload,
    _trace_payload,
    main,
    network_from_payload,
)
from momentforge.serialize import (
    instance_from_payload,
    load_json,
    parse_float_list,
)

KS_C_001 = 1.628


@pytest.fixture(scope="module")
def built_m3(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "m3.json"
    code = main(
        ["build", "--m", "3", "--eps-target", "1e-3", "--seed", "7", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def built_m5(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "m5.json"
    code = main(
        ["build", "--m", "5", "--eps-target", "1e-3", "--seed", "7", "--out", str(path)]
    )
    assert code == 0
    return path


class TestBuild:
    def test_m3_structure(self, built_m3):
        data = load_json(built_m3)
        assert data["kind"] == "instance"
        inst = instance_from_payload(data["evolved"])
        assert len(inst.bumps) == 2
        heights = inst.heights()
        assert heights[0] == pytest.approx(-heights[1], abs=1e-12)
        assert data["flags"]["target_reached"]
        # The trace's continuation counters survive a write and a read.
        trace = _trace_from_payload(data["trace"])
        assert len(trace.newton_iterations) == len(trace.times)
        assert trace.newton_iterations[0] == 0
        assert set(trace.step_cuts) == {"corrector", "guard", "sigma-drop"}
        assert _trace_payload(trace) == data["trace"]

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["build", "--m", "3", "--eps-target", "1e-3", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_slope_target(self, tmp_path):
        out = tmp_path / "slope.json"
        code = main(
            ["build", "--m", "5", "--slope-target", "1e4", "--out", str(out)]
        )
        assert code == 0
        data = load_json(out)
        inst = instance_from_payload(data["evolved"])
        assert inst.max_slope() <= 1e4
        assert data["flags"]["target_reached"]

    def test_collision_exit_code(self, tmp_path):
        out = tmp_path / "bad.json"
        code = main(["build", "--m", "5", "--eps0", "0.2", "--out", str(out)])
        assert code == 3

    def test_validation_exit_code(self, tmp_path):
        out = tmp_path / "bad.json"
        # eps0 large enough to blow the nu/2 budget but not collide.
        code = main(["build", "--m", "5", "--eps0", "5e-3", "--out", str(out)])
        assert code == 2


class TestVerify:
    def test_verify_default_build(self, built_m5, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["verify", str(built_m5), "--out", str(report_path)])
        assert code == 0
        report = load_json(report_path)
        assert report["kind"] == "report"
        errors = parse_float_list(report["report"]["moment_errors"])
        assert all(e < 1e-4 for e in errors)

    def test_corrupted_symmetry_detected(self, built_m5, tmp_path):
        data = json.loads(built_m5.read_text())
        heights = parse_float_list(data["evolved"]["heights"])
        heights[0] += 0.1
        data["evolved"]["heights"] = [repr(h) for h in heights]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        code = main(["verify", str(broken)])
        assert code == 2

    def test_quadrature_guard_exit_code(self, built_m5, monkeypatch):
        def failing(*args, **kwargs):
            raise QuadratureError(achieved=1e-3, target=2e-8)

        monkeypatch.setattr(verify_module, "pairwise_correlation", failing)
        assert main(["verify", str(built_m5)]) == 3

    def test_series_guard_exit_code(self, built_m5, capsys):
        # At sigma = 1e-3 the certified chi^2 sum needs ~3.6e7 terms.
        assert main(["verify", str(built_m5), "--sigma", "0.001"]) == 3
        assert "K = " in capsys.readouterr().err


class TestExportAndSample:
    def test_export_then_sample_matches_marginal(self, built_m5, tmp_path):
        net_path = tmp_path / "net.json"
        assert (
            main(
                [
                    "export",
                    str(built_m5),
                    "--d",
                    "6",
                    "--direction",
                    "e1",
                    "--out",
                    str(net_path),
                ]
            )
            == 0
        )
        samples_path = tmp_path / "planted.csv"
        n = 40_000
        assert (
            main(
                [
                    "sample",
                    str(net_path),
                    "--n",
                    str(n),
                    "--seed",
                    "3",
                    "--out",
                    str(samples_path),
                ]
            )
            == 0
        )
        planted = np.loadtxt(samples_path, delimiter=",")
        assert planted.shape == (n, 6)

        direct_path = tmp_path / "direct.csv"
        assert (
            main(
                [
                    "sample",
                    str(built_m5),
                    "--n",
                    str(n),
                    "--d",
                    "6",
                    "--direction",
                    "e1",
                    "--seed",
                    "4",
                    "--out",
                    str(direct_path),
                ]
            )
            == 0
        )
        direct = np.loadtxt(direct_path, delimiter=",")
        crit = KS_C_001 * math.sqrt(2.0 / n)
        assert stats.ks_2samp(planted[:, 0], direct[:, 0]).statistic <= crit

    def test_network_roundtrip(self, built_m5, tmp_path):
        net_path = tmp_path / "net.json"
        main(["export", str(built_m5), "--d", "4", "--out", str(net_path)])
        net = network_from_payload(load_json(net_path))
        z = np.random.default_rng(0).standard_normal((10, 5))
        out = net.eval(z)
        assert out.shape == (10, 4)
        assert np.allclose(out @ net.v, net.inner.eval(z[:, :2]), atol=1e-10)

    def test_null_sampling_ignores_instance(self, built_m3, built_m5, tmp_path):
        out_a = tmp_path / "null_a.csv"
        out_b = tmp_path / "null_b.csv"
        for src, out in ((built_m3, out_a), (built_m5, out_b)):
            code = main(
                [
                    "sample",
                    str(src),
                    "--kind",
                    "null",
                    "--d",
                    "5",
                    "--n",
                    "100",
                    "--seed",
                    "9",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_raw_f64_format(self, built_m5, tmp_path):
        out = tmp_path / "samples.f64"
        main(
            [
                "sample",
                str(built_m5),
                "--kind",
                "null",
                "--d",
                "3",
                "--n",
                "50",
                "--seed",
                "2",
                "--format",
                "f64",
                "--out",
                str(out),
            ]
        )
        arr = np.fromfile(out, dtype="<f8").reshape(50, 3)
        assert np.all(np.isfinite(arr))


class TestDistinguish:
    def test_oracle_v_json_output(self, built_m5, tmp_path):
        out = tmp_path / "dist.json"
        code = main(
            [
                "distinguish",
                str(built_m5),
                "--algo",
                "oracle-v",
                "--d",
                "8",
                "--trials",
                "30",
                "--seed",
                "17",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = load_json(out)
        adv = float(data["results"]["oracle-v"]["advantage"])
        assert adv >= 0.8

    def test_bad_file_io(self, tmp_path):
        code = main(["verify", str(tmp_path / "missing.json")])
        assert code == 4
