"""Damaged artifacts: every file a command reads either works or is refused.

A build file read by `verify`, `export` and `sample`, or a `net.json` read
by `sample`, that has been damaged in any one place must end the command
with exit 0 and finite output, or with a typed error (exit 2 or 3), never
with a traceback."""

import contextlib
import functools
import io
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from momentforge.serialize import load_json

D = 3
N = "40"


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """The text of the default m=5 build and of its d=3 export."""
    workdir = tmp_path_factory.mktemp("sources")
    build, net = workdir / "build.json", workdir / "net.json"
    assert main(["build", "--m", "5", "--eps-target", "1e-3", "--out", str(build)]) == 0
    assert main(["export", str(build), "--d", str(D), "--out", str(net)]) == 0
    return {"build": build.read_text(), "net": net.read_text()}


def run(source, command, path, workdir):
    """Run command on the source file at path; return its exit code and the
    path of its output."""
    out = workdir / f"{command}.out"
    argv = [command, str(path)]
    if command == "export" or (command, source) == ("sample", "build"):
        argv += ["--d", str(D)]
    if command == "sample":
        argv += ["--n", N, "--format", "f64"]
    return main([*argv, "--out", str(out)]), out


def finite(obj) -> bool:
    """True if every number in a loaded JSON artifact, including the reals
    spelled as strings, is finite."""
    if isinstance(obj, dict):
        return all(finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(finite(v) for v in obj)
    if isinstance(obj, str):
        try:
            return math.isfinite(float(obj))
        except ValueError:
            return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    return True


def output_is_finite(command, out) -> bool:
    if command == "sample":
        return bool(np.all(np.isfinite(np.fromfile(out, dtype="<f8"))))
    return finite(load_json(out))


def nodes(obj, path=()):
    """The path of every value in a loaded JSON document, the root first."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from nodes(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from nodes(value, (*path, i))


def at(data, path):
    return functools.reduce(operator.getitem, path, data)


@st.composite
def damaged(draw, text):
    """text with one edit: a key deleted, a value of another type, NaN or
    +-inf put in, a list resized, or the file truncated."""
    edit = draw(st.sampled_from(["delete", "retype", "nonfinite", "resize", "truncate"]))
    if edit == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    data = json.loads(text)
    paths = list(nodes(data))[1:]
    if edit == "resize":
        paths = [p for p in paths if isinstance(at(data, p), list)]
    path = draw(st.sampled_from(paths))
    parent, key = at(data, path[:-1]), path[-1]
    if edit == "delete":
        del parent[key]
    elif edit == "retype":
        parent[key] = draw(st.sampled_from([None, True, 7, "abc", [], {}]))
    elif edit == "nonfinite":
        parent[key] = draw(st.sampled_from(["nan", "inf", "-inf", math.nan, -math.inf]))
    else:
        items = parent[key]
        size = draw(st.integers(0, len(items) + 2))
        parent[key] = (items * (size // max(len(items), 1) + 1))[:size]
    return json.dumps(data, indent=1)


COMMANDS = [("build", "verify"), ("build", "export"), ("build", "sample"), ("net", "sample")]


# Budget: 200 examples run in about 2 s on a 2-vCPU host, most of them
# refused before any numerics run; the test should stay under 5 s.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_file_works_or_is_refused(sources, tmp_path_factory, data):
    source, command = data.draw(st.sampled_from(COMMANDS))
    text = data.draw(damaged(sources[source]))
    workdir = tmp_path_factory.mktemp("damaged")
    path = workdir / f"{source}.json"
    path.write_text(text)
    # hypothesis refuses the function-scoped capsys fixture.
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, out = run(source, command, path, workdir)
    assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC)
    if rc == EXIT_OK:
        assert output_is_finite(command, out)
    if rc == EXIT_VALIDATION:
        assert str(path) in err.getvalue()


def refused(source, command, path, workdir, capsys, message):
    """The command exits 2 with a message that names the file, and writes
    nothing."""
    rc, out = run(source, command, path, workdir)
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert str(path) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "source, command", COMMANDS, ids=["-".join(c) for c in COMMANDS]
)
@pytest.mark.parametrize(
    "content",
    [lambda t: b"{", lambda t: t.encode()[: len(t) // 2], lambda t: b'{"schema": "\xff"}'],
    ids=["brace", "truncated", "not-utf8"],
)
def test_file_that_is_not_json_exits_2(
    sources, tmp_path, capsys, source, command, content
):
    path = tmp_path / "bad.json"
    path.write_bytes(content(sources[source]))
    refused(source, command, path, tmp_path, capsys, "malformed file")


def test_nan_direction_exits_2(sources, tmp_path, capsys):
    # A NaN norm fails every comparison, so the unit-norm check must be
    # spelled to refuse it.
    payload = json.loads(sources["net"])
    payload["v"][0] = "nan"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    refused("net", "sample", path, tmp_path, capsys, "direction must be a unit vector")


@pytest.mark.parametrize("command", ["verify", "export", "sample"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda trace: trace.update(moment_residuals=[]),
        lambda trace: trace["moment_residuals"].__setitem__(1, []),
    ],
    ids=["no-rows", "empty-row"],
)
def test_damaged_trace_exits_2(sources, tmp_path, capsys, command, edit):
    payload = json.loads(sources["build"])
    edit(payload["trace"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    refused("build", command, path, tmp_path, capsys, "trace rows do not match")


@pytest.mark.parametrize("command", ["verify", "export", "sample"])
def test_nan_rule_weight_exits_2(sources, tmp_path, capsys, command):
    # The plateau-mass drift check must not pass a weight that compares
    # false with everything.
    payload = json.loads(sources["build"])
    payload["reduced_rule"]["weights"][0] = "nan"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    refused("build", command, path, tmp_path, capsys, "drifted from its rule weight")


@pytest.mark.parametrize("command", ["verify", "export", "sample"])
def test_colliding_supports_in_a_file_exit_2(sources, tmp_path, capsys, command):
    # The same collision from a flag (build --eps0 0.2) is a numeric guard,
    # exit 3; from a file it is damage to that file.
    payload = json.loads(sources["build"])
    payload["evolved"]["eps"] = "1.5"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    refused("build", command, path, tmp_path, capsys, "collide")


@pytest.mark.parametrize(
    "source, command, field",
    [("net", "sample", ("d",)), ("build", "verify", ("evolved", "m"))],
    ids=["net-d", "build-m"],
)
def test_infinite_integer_field_exits_2(sources, tmp_path, capsys, source, command, field):
    # int(-inf) raises OverflowError, which is not a ValueError.
    payload = json.loads(sources[source])
    at(payload, field[:-1])[field[-1]] = -math.inf
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    refused(source, command, path, tmp_path, capsys, "malformed file (OverflowError")
