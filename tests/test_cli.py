"""End-to-end command-line runs: files, determinism, exit codes."""

import dataclasses
import errno
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import keyed_gaussian_blocks
from scipy import stats

import momentforge
from momentforge import (
    HiddenDirectionDist,
    PushforwardDist,
    QuadratureError,
    distance_to_support,
)
from momentforge import distributions
from momentforge import verify as verify_module
from momentforge.cli import (
    _hidden_direction,
    _network_payload,
    main,
    network_from_payload,
)
from momentforge.distributions import (
    STREAM_HIDDEN,
    STREAM_LATENT,
    STREAM_NULL,
    ProjectedLaw,
    rng_stream,
)
from momentforge.serialize import (
    fnum,
    instance_from_payload,
    load_json,
    parse_float,
    parse_float_list,
    replacing,
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
        # The trace records its continuation counters.
        trace = data["trace"]
        assert len(trace["newton_iterations"]) == len(trace["times"])
        assert trace["newton_iterations"][0] == 0
        assert trace["step_cuts"] == 0 and type(trace["step_cuts"]) is int

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

    def test_partial_build_prints_its_stop_reason(self, tmp_path, capsys):
        # Supports of an m=3 build collide long before a ramp width of 1.
        out = tmp_path / "end.json"
        assert main(["build", "--m", "3", "--eps-target", "1", "--out", str(out)]) == 0
        assert "target partial (collision-guard)," in capsys.readouterr().out
        assert load_json(out)["flags"]["stop_reason"] == "collision-guard"

    def test_two_targets_rejected(self, tmp_path, capsys):
        out = tmp_path / "both.json"
        argv = ["build", "--m", "5", "--eps-target", "1e-3", "--slope-target", "10"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "exactly one of eps_target, slope_target" in capsys.readouterr().err
        assert not out.exists()

    def test_collision_exit_code(self, tmp_path):
        out = tmp_path / "bad.json"
        code = main(["build", "--m", "5", "--eps0", "0.2", "--out", str(out)])
        assert code == 3

    @pytest.mark.parametrize("flag", ["--eps-target", "--slope-target"])
    def test_nan_target_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "nan.json"
        code = main(["build", "--m", "5", flag, "nan", "--out", str(out)])
        assert code == 2
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_m17_names_the_ramp_free_floor(self, tmp_path, capsys):
        code = main(["build", "--m", "17", "--out", str(tmp_path / "m17.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ramp-free moment error is 5.7" in err
        assert "no eps0 passes at nu=0.0001" in err

    @pytest.mark.parametrize("m, eps0", [("3", "1e-300"), ("5", "1e-200")])
    def test_eps0_that_moves_no_edge_exits_2(self, tmp_path, capsys, m, eps0):
        out = tmp_path / "tiny.json"
        code = main(["build", "--m", m, "--eps0", eps0, "--out", str(out)])
        assert code == 2
        assert "leaves a plateau edge unmoved" in capsys.readouterr().err
        assert not out.exists()

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

    def test_seed_has_no_effect(self, built_m5, tmp_path):
        # verify draws nothing, so --seed leaves the report byte-identical.
        reports = []
        for seed in ("1", "2"):
            path = tmp_path / f"report-{seed}.json"
            argv = ["verify", str(built_m5), "--seed", seed, "--out", str(path)]
            assert main(argv) == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        support = load_json(path)["report"]["support_distance"]
        assert "samples" not in support
        assert parse_float(support["error_estimate"]) <= 1e-10

    @pytest.mark.parametrize("sigma", [None, "0.005"])
    def test_support_distance_rebuilt_from_report(
        self, built_m5, tmp_path, capsys, sigma
    ):
        # The report records the sigma, cosine and threshold of the support
        # check, so the build file and that record rebuild it bit for bit.
        path = tmp_path / "report.json"
        argv = ["verify", str(built_m5), "--out", str(path)]
        assert main(argv + (["--sigma", sigma] if sigma else [])) == 0
        recorded = load_json(path)["report"]["support_distance"]
        want = sigma or repr(verify_module.SUPPORT_SIGMA)
        assert recorded["sigma"] == want
        assert f"distance-to-support (sigma={float(want):g}, " in capsys.readouterr().out
        evolved = instance_from_payload(load_json(built_m5)["evolved"])
        dist = PushforwardDist.from_instance(evolved, parse_float(recorded["sigma"]))
        rebuilt = distance_to_support(dist, parse_float(recorded["cosine"]))
        assert {
            name: fnum(value) for name, value in dataclasses.asdict(rebuilt).items()
        } == recorded

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

    def test_tv_ratio_guard_exit_code(self, built_m5, capsys, monkeypatch):
        monkeypatch.setattr(
            ProjectedLaw, "panel_breaks", lambda law, jumps=(): np.array([-40.0, 40.0])
        )
        assert main(["verify", str(built_m5)]) == 3
        assert "D/phi overflows past 37.68" in capsys.readouterr().err

    def test_series_guard_exit_code(self, built_m5, capsys):
        # At sigma = 1e-3 and cosine 0.999999 the certified correlation sum
        # needs ~1.8e7 terms.
        argv = ["verify", str(built_m5), "--sigma", "0.001", "--cosine", "0.999999"]
        assert main(argv) == 3
        assert "K = " in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["0.999", "0.5000001", "0", "-0.1", "nan"])
    def test_sigma_outside_domain_exits_2_before_any_check(
        self, built_m5, tmp_path, capsys, sigma
    ):
        report_path = tmp_path / "report.json"
        code = main(["verify", str(built_m5), "--sigma", sigma, "--out", str(report_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"sigma must lie in (0, 1/2], got {float(sigma)}" in captured.err
        assert not report_path.exists()

    def test_narrow_sigma_certifies(self, built_m5, tmp_path):
        # chi^2 is an exact-density integral, so sigma = 1e-3 needs no
        # Hermite series beyond the correlation cosines'.
        report_path = tmp_path / "report.json"
        code = main(["verify", str(built_m5), "--sigma", "0.001", "--out", str(report_path)])
        assert code == 0
        report = load_json(report_path)["report"]
        assert not report["errors"]
        assert parse_float(report["chi_squared"]["error_estimate"]) <= 1e-8


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
        fstar = net.inner.eval(z[:, 0]) + net.sigma * z[:, 1]
        assert np.allclose(out @ net.v, fstar, atol=1e-10)

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

    @pytest.mark.parametrize("n", ["-1", "0"])
    @pytest.mark.parametrize("kind", ["lifted", "instance", "null"])
    def test_sample_count_must_be_positive(self, built_m5, tmp_path, capsys, kind, n):
        src = built_m5
        extra = ["--d", "3"]
        if kind == "lifted":
            src = tmp_path / "net.json"
            assert main(["export", str(built_m5), "--d", "3", "--out", str(src)]) == 0
            extra = []
        elif kind == "null":
            extra += ["--kind", "null"]
        out = tmp_path / "samples.csv"
        code = main(["sample", str(src), "--n", n, *extra, "--out", str(out)])
        assert code == 2
        assert "--n must be >= 1" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("direction", ["e1", "random"])
    @pytest.mark.parametrize("d", ["0", "-1"])
    @pytest.mark.parametrize("command", ["export", "sample"])
    def test_dimension_must_be_positive(
        self, built_m5, tmp_path, capsys, command, d, direction
    ):
        out = tmp_path / "out.json"
        args = ["--d", d, "--direction", direction, "--out", str(out)]
        code = main([command, str(built_m5), *args])
        assert code == 2
        assert f"--d must be >= 1, got {d}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("direction", ["e1", "random"])
    def test_export_and_sample_at_d1(self, built_m5, tmp_path, direction):
        # At d = 1 the reflection is the identity or a sign flip.
        net = tmp_path / "net.json"
        args = ["--d", "1", "--direction", direction, "--seed", "4", "--out", str(net)]
        assert main(["export", str(built_m5), *args]) == 0
        assert load_json(net)["d"] == 1
        out = tmp_path / "samples.f64"
        argv = ["sample", str(net), "--n", "50", "--format", "f64", "--out", str(out)]
        assert main(argv) == 0
        samples = np.fromfile(out, dtype="<f8")
        assert samples.size == 50 and np.all(np.isfinite(samples))

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_null_dimension_must_be_positive(self, built_m5, tmp_path, capsys, d):
        out = tmp_path / "out.csv"
        args = ["--kind", "null", "--d", d, "--out", str(out)]
        assert main(["sample", str(built_m5), *args]) == 2
        assert f"--d must be >= 1, got {d}" in capsys.readouterr().err
        assert not out.exists()


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def reservations(monkeypatch):
    """The (offset, length) of every os.posix_fallocate call, which still
    reserves."""
    if not hasattr(os, "posix_fallocate"):
        pytest.skip("no posix_fallocate on this platform")
    calls = []
    real = os.posix_fallocate

    def spy(fd, offset, length):
        calls.append((offset, length))
        real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", spy)
    return calls


def fallocate_fails(monkeypatch, code):
    def fail(fd, offset, length):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "posix_fallocate", fail, raising=False)


def one_shot(kind, direction, n, d, seed, net, built, sigma=0.05):
    """The samples `sample` writes, with the Gaussian blocks drawn one after
    another from their keyed substreams, stacked and mapped in one shot; net
    is the exported network for the lifted kind, built the instance file."""
    if kind == "lifted":
        z = np.concatenate(keyed_gaussian_blocks(seed, STREAM_LATENT, n, d + 1))
        return network_from_payload(load_json(net)).eval(z)
    if kind == "null":
        return np.concatenate(keyed_gaussian_blocks(seed, STREAM_NULL, n, d))
    evolved = instance_from_payload(load_json(built)["evolved"])
    marginal = PushforwardDist.from_instance(evolved, sigma)
    v = _hidden_direction(d, direction, seed)
    s = marginal.draw(rng_stream(seed, STREAM_HIDDEN), n)
    g = np.concatenate(keyed_gaussian_blocks(seed, STREAM_HIDDEN + 0x100, n, d))
    return HiddenDirectionDist(d=d, v=v, marginal=marginal).embed(s, g)


class TestSampleStream:
    """`sample` writes block by block; the file is the serial draw of the
    keyed blocks, mapped in one shot, byte for byte, whatever the number of
    CPUs, and a failed run leaves --out as it was."""

    D = 6
    SEED = 5
    SIGMA = 0.05
    # A small block: 2**3 rows of D or D + 1 values, so that a few dozen
    # rows span several blocks.
    BLOCK_VALUES = 64
    ROWS = 8
    CASES = [
        ("lifted", "e1"),
        ("lifted", "random"),
        ("planted", "e1"),
        ("planted", "random"),
        ("null", "e1"),
    ]

    @pytest.fixture(scope="class")
    def nets(self, built_m5, tmp_path_factory):
        paths = {}
        for direction in ("e1", "random"):
            path = tmp_path_factory.mktemp("stream") / f"net-{direction}.json"
            args = ["--d", str(self.D), "--direction", direction, "--seed", str(self.SEED)]
            assert main(["export", str(built_m5), *args, "--out", str(path)]) == 0
            paths[direction] = path
        return paths

    def argv(self, kind, direction, nets, built_m5):
        if kind == "lifted":
            return ["sample", str(nets[direction])]
        argv = ["sample", str(built_m5), "--kind", kind, "--d", str(self.D)]
        if kind == "planted":
            argv += ["--direction", direction, "--sigma", str(self.SIGMA)]
        return argv

    def reference(self, kind, direction, n, nets, built_m5):
        return one_shot(
            kind, direction, n, self.D, self.SEED, nets[direction], built_m5, self.SIGMA
        )

    def reference_bytes(self, samples, fmt, tmp_path):
        if fmt == "f64":
            return samples.astype("<f8").tobytes()
        path = tmp_path / "reference.csv"
        np.savetxt(path, samples, delimiter=",", fmt="%.17g")
        return path.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "f64"])
    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 2)]
    )
    @pytest.mark.parametrize("kind, direction", CASES)
    def test_streamed_file_is_one_shot_draw(
        self, nets, built_m5, tmp_path, monkeypatch, kind, direction, blocks, extra, fmt
    ):
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", self.BLOCK_VALUES)
        n = blocks * self.ROWS + extra
        out = tmp_path / f"samples.{fmt}"
        argv = self.argv(kind, direction, nets, built_m5)
        args = ["--n", str(n), "--seed", str(self.SEED), "--format", fmt]
        assert main([*argv, *args, "--out", str(out)]) == 0
        want = self.reference(kind, direction, n, nets, built_m5)
        assert out.read_bytes() == self.reference_bytes(want, fmt, tmp_path)

    @pytest.mark.parametrize("kind, direction", [CASES[1], CASES[3], CASES[4]])
    def test_bytes_do_not_depend_on_cpu_count(
        self, nets, built_m5, tmp_path, monkeypatch, kind, direction
    ):
        # Five blocks, filled on one or two threads.
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", self.BLOCK_VALUES)
        n = 5 * self.ROWS + 3
        argv = self.argv(kind, direction, nets, built_m5)
        args = ["--n", str(n), "--seed", str(self.SEED), "--format", "f64"]
        files = []
        for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"samples-{len(cpus)}.f64"
            assert main([*argv, *args, "--out", str(out)]) == 0
            files.append(out.read_bytes())
        want = self.reference(kind, direction, n, nets, built_m5)
        assert files == [self.reference_bytes(want, "f64", tmp_path)] * 3

    def test_default_blocks_at_d50(self, built_m5, tmp_path):
        # Two default blocks of 2**14 rows, the second taking one more row,
        # at the benchmark's d = 50: the file is the serial keyed draw,
        # mapped in one shot, byte for byte.  Every map rounds each row on
        # its own, so this holds under any number of BLAS threads.
        d, n, seed = 50, 2 * 2**14 + 1, 5
        out = tmp_path / "samples.f64"
        cases = [("lifted", "e1"), ("lifted", "random"), ("planted", "random"), ("null", "e1")]
        for kind, direction in cases:
            args = ["--d", str(d), "--direction", direction, "--seed", str(seed)]
            net = tmp_path / f"net-{direction}.json"
            if kind == "lifted":
                assert main(["export", str(built_m5), *args, "--out", str(net)]) == 0
                argv = ["sample", str(net)]
            elif kind == "null":
                argv = ["sample", str(built_m5), "--kind", kind, *args[:2]]
            else:
                argv = ["sample", str(built_m5), "--kind", kind, *args[:4]]
            argv += ["--n", str(n), "--seed", str(seed), "--format", "f64"]
            assert main([*argv, "--out", str(out)]) == 0
            want = one_shot(kind, direction, n, d, seed, net, built_m5)
            assert out.read_bytes() == want.astype("<f8").tobytes(), (kind, direction)

    def test_random_direction_bytes_ignore_blas_threads(self, built_m5, tmp_path):
        # Neither g.v nor the lifted network's x.u goes through BLAS, so the
        # planted and lifted files are the same under one and two BLAS
        # threads; d and n span two default blocks of 2**14 rows.
        net = tmp_path / "net.json"
        law = ["--d", "50", "--direction", "random"]
        assert main(["export", str(built_m5), *law, "--seed", "7", "--out", str(net)]) == 0
        n = 2 * 2**14 + 1
        sample = ["--n", str(n), "--seed", "7", "--format", "f64"]
        inputs = {
            "planted": ["sample", str(built_m5), "--kind", "planted", *law, *sample],
            "lifted": ["sample", str(net), *sample],
        }
        paths = [os.path.dirname(os.path.dirname(momentforge.__file__))]
        python_path = os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])
        for kind, argv in inputs.items():
            files = []
            for threads in ("1", "2"):
                env = dict(os.environ, PYTHONPATH=python_path)
                env.update({var: threads for var in BLAS_THREAD_VARS})
                out = tmp_path / f"{kind}-threads{threads}.f64"
                done = subprocess.run(
                    [sys.executable, "-m", "momentforge", *argv, "--out", str(out)],
                    env=env,
                    capture_output=True,
                    text=True,
                )
                assert done.returncode == 0, done.stderr
                files.append(out.read_bytes())
            assert len(files[0]) == n * 50 * 8, kind
            assert files[0] == files[1], kind

    @pytest.mark.parametrize("existing", [True, False])
    @pytest.mark.parametrize("fmt", ["csv", "f64"])
    @pytest.mark.parametrize("kind", ["lifted", "planted", "null"])
    def test_failed_sample_leaves_out_as_it_was(
        self, nets, built_m5, tmp_path, monkeypatch, kind, fmt, existing
    ):
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", self.BLOCK_VALUES)
        real_blocks = distributions._gaussian_blocks

        def second_block_fails(*args):
            blocks = real_blocks(*args)
            yield next(blocks)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(distributions, "_gaussian_blocks", second_block_fails)
        workdir = tmp_path / "work"
        workdir.mkdir()
        out = workdir / f"samples.{fmt}"
        if existing:
            out.write_bytes(b"earlier samples\n")
        argv = self.argv(kind, "e1", nets, built_m5)
        n = 3 * self.ROWS
        assert main([*argv, "--n", str(n), "--format", fmt, "--out", str(out)]) == 4
        if existing:
            assert out.read_bytes() == b"earlier samples\n"
        assert sorted(os.listdir(workdir)) == (["samples." + fmt] if existing else [])

    def test_d_must_match_network(self, nets, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = main(["sample", str(nets["e1"]), "--d", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--d 4" in err and f"d = {self.D}" in err
        assert not out.exists()
        args = ["--d", str(self.D), "--n", "3", "--out", str(out)]
        assert main(["sample", str(nets["e1"]), *args]) == 0

    @pytest.mark.parametrize("direction", ["e1", "random"])
    def test_payload_roundtrip_is_bit_exact(self, nets, direction):
        payload = load_json(nets[direction])
        assert _network_payload(network_from_payload(payload)) == payload

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("d",), 3, "v has"),
            (("units", 0, "w", 1), "1.0", "not (w, 0)"),
            (("linear",), ["0.0", "0.3"], "not (0, sigma)"),
        ],
        ids=["d", "second-weight", "linear"],
    )
    def test_malformed_network_exits_2(self, nets, tmp_path, capsys, path, value, message):
        # A field the file states twice must agree with its other copy: a
        # file that disagrees with itself is refused, neither sampled nor
        # crashed on.
        payload = load_json(nets["e1"])
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "samples.csv"
        assert main(["sample", str(bad), "--n", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, edit, message",
        [
            (
                "net",
                lambda p: p.update(sigma="2.0", linear=["0.0", "2.0"]),
                "sigma must lie in (0,1), got 2.0",
            ),
            ("net", lambda p: p["units"][0].update(w="1.5"), "got '1.5'"),
            ("net", lambda p: p["units"][0].update(w="10"), "got '10'"),
            ("net", lambda p: p["units"][0].pop("b"), "bad.json: malformed file (KeyError"),
            (
                "net",
                lambda p: p["v"].__setitem__(0, "abc"),
                "bad.json: malformed file (ValueError",
            ),
            (
                "build",
                lambda p: p["evolved"]["heights"].__setitem__(0, "abc"),
                "bad.json: malformed file (ValueError",
            ),
            (
                "build",
                lambda p: p["evolved"].pop("eps"),
                "bad.json: malformed file (KeyError",
            ),
            (
                "build",
                lambda p: p["trace"].pop("sigma_mins"),
                "bad.json: malformed file (KeyError",
            ),
        ],
        ids=[
            "net-sigma",
            "net-weight-string",
            "net-weight-digits",
            "net-unit-without-b",
            "net-v-not-a-number",
            "build-height-not-a-number",
            "build-without-eps",
            "build-without-sigma-mins",
        ],
    )
    def test_malformed_file_exits_2(
        self, nets, built_m5, tmp_path, capsys, source, edit, message
    ):
        # A field that is missing, of the wrong type or out of range is a
        # validation error naming the problem, not a traceback or a sample.
        payload = load_json(nets["e1"] if source == "net" else built_m5)
        edit(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "samples.csv"
        if source == "net":
            argv = ["sample", str(bad), "--n", "3", "--out", str(out)]
        else:
            argv = ["verify", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--sigma", "0.4"), ("--sigma", "0.05"), ("--direction", "random"),
         ("--direction", "e1")],
    )
    def test_network_rejects_sigma_and_direction(self, nets, tmp_path, capsys, flag, value):
        # The network carries its own sigma and v; even a value equal to the
        # instance default is refused rather than silently ignored.
        out = tmp_path / "samples.csv"
        code = main(["sample", str(nets["e1"]), flag, value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "network fixes sigma and v" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--sigma", "0.4"), ("--sigma", "0.05"), ("--direction", "random"),
         ("--direction", "e1")],
    )
    def test_null_rejects_sigma_and_direction(self, built_m5, tmp_path, capsys, flag, value):
        # N(0, I_d) has neither; a flag that changes nothing is refused
        # rather than silently ignored.
        out = tmp_path / "samples.csv"
        argv = ["sample", str(built_m5), "--kind", "null", "--d", str(self.D), "--n", "5"]
        assert main([*argv, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "null sampling" in err
        assert not out.exists()

    def test_instance_sigma_and_direction_defaults(self, built_m5, tmp_path):
        args = ["--kind", "planted", "--d", str(self.D), "--n", "20", "--seed", "3"]
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        assert main(["sample", str(built_m5), *args, "--out", str(implicit)]) == 0
        defaults = ["--sigma", "0.05", "--direction", "e1"]
        assert main(["sample", str(built_m5), *args, *defaults, "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_pipe_is_written_directly(self, nets, tmp_path, reservations):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = {}
        reader = threading.Thread(
            target=lambda: got.update(data=pipe.read_bytes()), daemon=True
        )
        reader.start()
        args = ["--n", "5", "--seed", str(self.SEED), "--format", "f64"]
        assert main(["sample", str(nets["e1"]), *args, "--out", str(pipe)]) == 0
        reader.join(timeout=30)
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert reservations == []
        want = self.reference("lifted", "e1", 5, nets, None)
        assert got["data"] == self.reference_bytes(want, "f64", tmp_path)

    def test_symlink_is_followed(self, nets, tmp_path):
        target = tmp_path / "target.f64"
        target.write_bytes(b"earlier samples\n")
        link = tmp_path / "link.f64"
        link.symlink_to(target)
        args = ["--n", "5", "--seed", str(self.SEED), "--format", "f64"]
        assert main(["sample", str(nets["e1"]), *args, "--out", str(link)]) == 0
        assert link.is_symlink()
        want = self.reference("lifted", "e1", 5, nets, None)
        assert target.read_bytes() == self.reference_bytes(want, "f64", tmp_path)

    @pytest.mark.parametrize("kind", ["lifted", "planted", "null"])
    def test_peak_memory_is_below_half_the_output(self, built_m5, tmp_path, kind):
        n, d = 200_000, 50
        if kind == "lifted":
            net = tmp_path / "net50.json"
            assert main(["export", str(built_m5), "--d", str(d), "--out", str(net)]) == 0
            argv = ["sample", str(net)]
        else:
            argv = ["sample", str(built_m5), "--kind", kind, "--d", str(d)]
        argv += ["--n", str(n), "--format", "f64", "--out", str(tmp_path / "s.f64")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "s.f64").stat().st_size == n * d * 8
        assert peak < 0.5 * n * d * 8

    @pytest.mark.parametrize("kind", ["lifted", "planted", "null"])
    def test_peak_memory_with_four_cpus(self, built_m5, tmp_path, monkeypatch, kind):
        # Four CPUs still get two fillers, so at most three blocks in flight.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        self.test_peak_memory_is_below_half_the_output(built_m5, tmp_path, kind)

    @pytest.mark.parametrize("kind, direction", [CASES[1], CASES[3], CASES[4]])
    def test_f64_sample_reserves_its_size(
        self, nets, built_m5, tmp_path, monkeypatch, reservations, kind, direction
    ):
        # d is the output dimension: D for a network too, not its D + 1
        # inputs.  The sample replaces a longer earlier file.
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", self.BLOCK_VALUES)
        workdir = tmp_path / "work"
        workdir.mkdir()
        out = workdir / "samples.f64"
        out.write_bytes(b"earlier samples, longer than the new ones\n" * 100)
        n = 2 * self.ROWS + 3
        argv = self.argv(kind, direction, nets, built_m5)
        args = ["--n", str(n), "--seed", str(self.SEED), "--format", "f64"]
        assert main([*argv, *args, "--out", str(out)]) == 0
        assert reservations == [(0, 8 * n * self.D)]
        assert os.listdir(workdir) == ["samples.f64"]
        want = self.reference(kind, direction, n, nets, built_m5)
        assert out.read_bytes() == self.reference_bytes(want, "f64", tmp_path)

    @pytest.mark.parametrize("kind, direction", [CASES[0], CASES[2], CASES[4]])
    def test_csv_sample_reserves_nothing(
        self, nets, built_m5, tmp_path, reservations, kind, direction
    ):
        out = tmp_path / "samples.csv"
        argv = self.argv(kind, direction, nets, built_m5)
        assert main([*argv, "--n", "5", "--format", "csv", "--out", str(out)]) == 0
        assert reservations == []

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EFBIG])
    @pytest.mark.parametrize("existing", [True, False])
    @pytest.mark.parametrize("kind", ["lifted", "planted", "null"])
    def test_sample_too_large_for_the_disk_fails_before_drawing(
        self, nets, built_m5, tmp_path, monkeypatch, capsys, kind, existing, code
    ):
        fallocate_fails(monkeypatch, code)

        def no_draw(*args):
            raise AssertionError("a block was drawn")
            yield

        monkeypatch.setattr(distributions, "_gaussian_blocks", no_draw)
        workdir = tmp_path / "work"
        workdir.mkdir()
        out = workdir / "samples.f64"
        if existing:
            out.write_bytes(b"earlier samples\n")
        argv = self.argv(kind, "e1", nets, built_m5)
        assert main([*argv, "--n", "10", "--format", "f64", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("i/o error: ")
        if existing:
            assert out.read_bytes() == b"earlier samples\n"
        assert sorted(os.listdir(workdir)) == (["samples.f64"] if existing else [])


class TestReplacing:
    """serialize.replacing with a size: the reservation, and the check that
    exactly that many bytes were written."""

    @pytest.mark.parametrize("unsupported", ["EOPNOTSUPP", "EINVAL", "absent"])
    def test_filesystem_without_reservation_is_written_unreserved(
        self, tmp_path, monkeypatch, unsupported
    ):
        if unsupported == "absent":
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        else:
            fallocate_fails(monkeypatch, getattr(errno, unsupported))
        path = tmp_path / "a.bin"
        path.write_bytes(b"earlier bytes\n")
        with replacing(path, 100) as fh:
            fh.write(bytes(range(100)))
        assert path.read_bytes() == bytes(range(100))
        assert os.listdir(tmp_path) == ["a.bin"]

    @pytest.mark.parametrize("written", [0, 99, 101])
    @pytest.mark.parametrize("existing", [True, False])
    def test_wrong_size_leaves_path_as_it_was(self, tmp_path, written, existing):
        workdir = tmp_path / "work"
        workdir.mkdir()
        path = workdir / "a.bin"
        if existing:
            path.write_bytes(b"earlier bytes\n")
        with pytest.raises(ValueError, match=f"wrote {written} bytes, expected 100"):
            with replacing(path, 100) as fh:
                fh.write(b"x" * written)
        if existing:
            assert path.read_bytes() == b"earlier bytes\n"
        assert sorted(os.listdir(workdir)) == (["a.bin"] if existing else [])

    def test_other_reservation_errors_propagate(self, tmp_path, monkeypatch):
        fallocate_fails(monkeypatch, errno.EIO)
        with pytest.raises(OSError) as info:
            with replacing(tmp_path / "a.bin", 100) as fh:
                fh.write(b"x" * 100)
        assert info.value.errno == errno.EIO
        assert os.listdir(tmp_path) == []


class TestDistinguish:
    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_dimension_must_be_positive(self, built_m5, tmp_path, capsys, d):
        out = tmp_path / "dist.json"
        code = main(["distinguish", str(built_m5), "--d", d, "--out", str(out)])
        assert code == 2
        assert f"--d must be >= 1, got {d}" in capsys.readouterr().err
        assert not out.exists()

    def test_moment_scan_dimension_below_subset(self, built_m5, capsys):
        code = main(
            ["distinguish", str(built_m5), "--d", "2", "--algo", "moment-scan"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "subset_size" in err and "d=2" in err

    def test_oversized_honest_answer_exits_2(self, built_m5, tmp_path, capsys):
        # At tau = 1e-4 a degree-1 monomial needs about 1.4e7 draws, more
        # than one honest answer may take.
        out = tmp_path / "dist.json"
        argv = ["distinguish", str(built_m5), "--mode", "honest", "--tau", "1e-4",
                "--trials", "30", "--d", "8", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "tau=0.0001 needs n=" in err and "more than the 4194304" in err
        assert not out.exists()

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
