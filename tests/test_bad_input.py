"""Spoilt inputs through the command line: one numeric or YAML token of the
model, the calibration, a 14-line capture or the stream config is replaced
by a bad value, and the run must end in exit 0, 1 or 2 without an escaping
exception, and write no non-finite number at exit 0.  The property draws an
input, then one of its keys, then one of that key's tokens, so that a key
with ten tokens is spoilt as often as one with a hundred."""

import math
import re

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA, README_STREAMS
from dexretarget.cli import main
from dexretarget.fileio import write_calibration

# PyYAML reads 1e308 as a string and 1.0e+308 as a float: both spellings are here,
# so that huge and tiny finite numbers reach the model, calibration and config checks;
# 100000000000 is a huge integer for the integer keys (taxel rows, indices, finger ids, seed)
_VALUES = ["nan", "-nan", "inf", "-inf", ".nan", ".inf", "-.inf", "0", "-0", "-1", "1.5", "3",
           "1e6", "1.0e+6", "-1e308", "1e308", "1.0e+308", "-1.0e+308", "1e-6", "1e-308",
           "1.0e-308", "1e999", "100000000000", "true", "null", "~", "[]", "{}", "''", "x"]
_YAML_TOKEN = re.compile(r"[^\s\[\]{},:#]+")
# leading fields of an output line that are names (of a stream, of a finger), not numbers
_NAMES = {"events.txt": 1, "metrics.txt": 1}


def _keys(name, text):
    """Each token's (start, end) span, grouped by key: a capture's by column,
    its header lines one key; a YAML document's by the mapping keys above the
    token, list positions and integer keys left out, and the tokens outside
    every key and value (list dashes, comments) one key."""
    keys = {}
    if name == "capture":
        for line in re.finditer(r"[^\n]+", text):
            for column, m in enumerate(re.finditer(r"\S+", line.group())):
                key = "header" if line.group().startswith("#") else column
                keys.setdefault(key, []).append((line.start() + m.start(), line.start() + m.end()))
        return keys
    owner = [""] * len(text)  # each character's key

    def walk(node, path):
        if isinstance(node, yaml.MappingNode):
            for key, value in node.value:
                inner = path if key.tag.endswith(":int") else f"{path}.{key.value}".lstrip(".")
                walk(key, inner)
                walk(value, inner)
        elif isinstance(node, yaml.SequenceNode):
            for value in node.value:
                walk(value, path)
        else:
            start, end = node.start_mark.index, node.end_mark.index
            owner[start:end] = [path] * (end - start)

    walk(yaml.compose(text, Loader=yaml.SafeLoader), "")
    for m in _YAML_TOKEN.finditer(text):
        keys.setdefault(owner[m.start()], []).append(m.span())
    return keys


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, calibration):
    """Each input's text and its tokens' spans by key."""
    path = tmp_path_factory.mktemp("calibration") / "calibration.yaml"
    write_calibration(path, calibration)
    capture = "".join((DATA / "gestures" / "pinch.traj").read_text().splitlines(True)[:14])
    texts = {"model": (DATA / "rapid_hand_20dof.yaml").read_text(), "calibration": path.read_text(),
             "capture": capture, "config": README_STREAMS}
    return {name: (text, _keys(name, text)) for name, text in texts.items()}


def _non_finite(out):
    """(file, line) of each output line holding a number that is not finite."""
    for path in sorted(out.iterdir()):
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                continue
            for field in re.split(r'[\s:,"]+', line.split(None, _NAMES.get(path.name, 0))[-1]):
                try:
                    if not math.isfinite(float(field)):
                        yield path.name, line
                except ValueError:
                    pass


def _mended(spoilt, pattern, value, metrics=False):
    """An explicit example: input ``spoilt`` with the token that is the group of
    ``pattern`` replaced by ``value``, run through ``metrics`` if a model."""
    return example(data=None, mended=(spoilt, pattern, value, metrics))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), mended=st.none())
# the one-token spellings of mended defects, run every time: config times
# past the float range, and event and frame counts that overflowed or ran away
@_mended("config", r"latency_bound: (0\.002)", "1.0e+308")
@_mended("config", r"camera, period: (0\.04)", "1.0e-308")
@_mended("config", r"rate_hz: (25\.0)", "1.0e+308")
@_mended("config", r"rate_hz: (25\.0)", "1.0e+6")
@_mended("config", r"duration: (10\.0)", "1.0e+308")
# model numbers that overflowed an axis norm, a taxel grid, a voxel index or a
# Jacobian product, an unbounded taxel grid and joint span, and a subnormal
# axis on which numpy's det divided by zero
@_mended("model", r"axis: \[(0\.0), 0\.0, 1\.0\]", "1.0e+308")
@_mended("model", r"row_step: \[(0\.0015)", "1.0e+308", metrics=True)
@_mended("model", r"origin_translation: \[(0\.005)", "1.0e+308")
@_mended("model", r"origin_translation: \[(0\.005)", "1.0e+308", metrics=True)
@_mended("model", r"rows: (12)", "100000000000", metrics=True)
@_mended("model", r"limits: \[(-0\.8)", "-1.0e+308", metrics=True)
@_mended("model", r"index_pip\n\s+axis: \[(0\.0)", "1.0e-308", metrics=True)
# a calibration coupling one finger twice, or the thumb to itself
@_mended("calibration", r"coupling_fingers: \[1, 2, 3, (4)\]", "3")
@_mended("calibration", r"coupling_fingers: \[(1)", "0")
def test_spoilt_token_ends_in_an_exit_code(tmp_path_factory, inputs, data, mended):
    if mended is None:
        spoilt = data.draw(st.sampled_from(sorted(inputs)), label="input")
        text, keys = inputs[spoilt]
        key = data.draw(st.sampled_from(sorted(keys, key=str)), label="key")
        start, end = data.draw(st.sampled_from(keys[key]), label="token")
        value = data.draw(st.sampled_from(_VALUES), label="value")
        metrics = spoilt == "model" and data.draw(st.booleans(), label="metrics")
    else:
        spoilt, pattern, value, metrics = mended
        text, keys = inputs[spoilt]
        start, end = re.search(pattern, text).span(1)
        assert any((start, end) in spans for spans in keys.values())  # one the property may draw
    run = tmp_path_factory.mktemp("spoilt")
    paths = {name: run / name for name in inputs}
    for name, path in paths.items():
        path.write_text(text[:start] + value + text[end:] if name == spoilt else inputs[name][0])
    if spoilt == "config":
        argv = ["syncsim", "--config", paths["config"]]
    elif metrics:
        (run / "poses.txt").write_text("rest" + " 0" * 20 + "\n")  # the rest pose
        argv = ["metrics", "--model", paths["model"], "--poses", run / "poses.txt",
                "--metric", "all", "--samples", "64"]
    else:
        argv = ["retarget", "--model", paths["model"], "--calibration", paths["calibration"],
                "--input", paths["capture"]]
    code = main([str(a) for a in argv] + ["--out", str(run / "out")])
    assert code in (0, 1, 2)
    if code == 0:
        assert list(_non_finite(run / "out")) == []


def test_subnormal_thumb_yaw_gives_finite_metrics(tmp_path):
    # the thumb's angular Gram matrix then holds a subnormal entry, on which
    # numpy's det divides by zero
    text = (DATA / "rapid_hand_20dof.yaml").read_text()
    spoilt = text.replace(", 1.5707963267948966]", ", 1.0e-308]")
    assert spoilt != text
    (tmp_path / "model.yaml").write_text(spoilt)
    (tmp_path / "poses.txt").write_text("rest" + " 0" * 20 + "\n")
    code = main(["metrics", "--model", str(tmp_path / "model.yaml"), "--poses",
                 str(tmp_path / "poses.txt"), "--metric", "all", "--samples", "64",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert list(_non_finite(tmp_path / "out")) == []
