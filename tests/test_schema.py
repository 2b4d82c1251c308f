"""The declared document tables: every key of a valid document, spoilt,
fails its reader naming that key."""

import copy
import math
import re
from functools import reduce
from operator import getitem

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import DATA, README_STREAMS
from dexretarget import fileio, hand_model
from dexretarget.cli import EXIT_ERROR, main
from dexretarget.fileio import FileFormatError, read_calibration, read_stream_config, write_calibration
from dexretarget.hand_model import ModelError, load_hand_model
from dexretarget.schema import LOADER

# values of every kind but null, which leaves an optional key at its default, and
# values just past a bound: a length over 10 m, a non-finite number, a count
# of 0 and limits with lower > upper
_OTHERS = [True, False, "text", 7, -2, 2.5, [], [1.0], [1, 2], [True], [[1.0, 2.0, 3.0]],
           {1: 2.0}, {"key": "value"}, [11.0, 0.0, 0.0], [math.nan, 0.0, 0.0], 0, [1.0, -1.0]]


def _locations(doc, table, at=()):
    """(location, kind, required) of every key ``doc`` gives, in every entry;
    a location is the keys and list indices leading to the key."""
    for key, (kind, required) in table.items():
        if key in doc:
            yield at + (key,), kind, required
            for n, entry in enumerate(doc[key] if kind.table is not None else ()):
                yield from _locations(entry, kind.table, at + (key, n))


def _named(doc, table, location):
    """The entry ``location`` lies in, and its key, as the checker names them."""
    where, path = "document", ""
    *steps, key = location
    for outer, n in zip(steps[::2], steps[1::2]):
        kind = table[outer][0]
        doc = doc[outer][n]
        label = doc.get(kind.label)
        where = f"{path}{outer}[{label if isinstance(label, str) else n}]"
        path, table = where + ".", kind.table
    return where, path + key


def _spoil_item(value, draw):
    """``value`` with one innermost item made a bool, or one key of a mapping
    made a fraction (a bool key would equal the integer key 1)."""
    if isinstance(value, dict):
        k = draw(st.sampled_from(sorted(value)))
        if draw(st.booleans()):
            return {**value, k: draw(st.booleans())}
        return {(j + 0.5 if j == k else j): v for j, v in value.items()}
    k = draw(st.integers(0, len(value) - 1))
    item = value[k]
    item = _spoil_item(item, draw) if isinstance(item, list) and item else draw(st.booleans())
    return value[:k] + [item] + value[k + 1:]


def _spoilt(doc, table, draw):
    """A deep copy of ``doc`` with one key deleted or given a value of another
    kind, and a pattern the reader's error must match."""
    location, kind, required = draw(st.sampled_from(list(_locations(doc, table))))
    doc = copy.deepcopy(doc)
    parent = doc
    for step in location[:-1]:
        parent = parent[step]
    key = location[-1]
    how = draw(st.sampled_from(["delete", "replace", "item"] if required else ["replace", "item"]))
    if how == "delete":
        del parent[key]
    elif how == "item" and kind.table is None and isinstance(parent[key], (list, dict)) \
            and parent[key]:
        parent[key] = _spoil_item(parent[key], draw)
    else:
        parent[key] = draw(st.sampled_from([v for v in _OTHERS if not kind.test(v)]))
    where, path = _named(doc, table, location)
    if how == "delete":
        return doc, re.escape(f"{where}: missing required key {key!r}")
    # the key's own message (``key: ...``), or one about an entry of its list (``key[n]: ...``)
    return doc, re.escape(path) + r"[:\[]"


# the bundled planar chain and README's stream config, each given every
# optional key its tables declare
_MODEL = yaml.safe_load((DATA / "planar_2dof.yaml").read_text())
_MODEL["fingers"][0]["joints"][1].update(parent="shoulder", origin_rotation=[0.0, 0.0, 0.1])
_MODEL.update(rest_pose=[0.0, 0.0], taxel_layouts=[{
    "finger": "arm", "rows": 2, "cols": 3, "origin": [0.0, 0.0, 0.0],
    "row_step": [0.001, 0.0, 0.0], "col_step": [0.0, 0.001, 0.0]}])
_STREAMS = yaml.safe_load(README_STREAMS)
_STREAMS["streams"][0].update(jitter="gauss")
_STREAMS.update(soft_latency=[0.015, 0.1], seed=3)


@pytest.fixture(scope="module")
def calibration_doc(tmp_path_factory, calibration):
    path = tmp_path_factory.mktemp("calibration") / "calibration.yaml"
    write_calibration(path, calibration)
    return yaml.safe_load(path.read_text())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("spoilt")


def _keys(table, at=""):
    """Every key ``table`` declares, its entries' keys too, as dotted names."""
    for key, (kind, _) in table.items():
        yield at + key
        yield from _keys(kind.table or {}, f"{at}{key}.")


def test_documents_are_valid_and_give_every_key(calibration_doc, scratch):
    load_hand_model(yaml.safe_dump(_MODEL))
    (scratch / "streams.yaml").write_text(yaml.safe_dump(_STREAMS))
    read_stream_config(scratch / "streams.yaml")
    for doc, table in ((_MODEL, hand_model._DOCUMENT), (calibration_doc, fileio._CALIBRATION),
                       (_STREAMS, fileio._CONFIG)):
        given_keys = {".".join(k for k in location if isinstance(k, str))
                      for location, _, _ in _locations(doc, table)}
        assert given_keys == set(_keys(table))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_spoilt_model_key_is_named(data):
    doc, pattern = _spoilt(_MODEL, hand_model._DOCUMENT, data.draw)
    with pytest.raises(ModelError) as err:
        load_hand_model(yaml.safe_dump(doc))
    assert re.search(pattern, str(err.value)), (pattern, str(err.value))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_spoilt_calibration_key_is_named(scratch, calibration_doc, data):
    doc, pattern = _spoilt(calibration_doc, fileio._CALIBRATION, data.draw)
    path = scratch / "calibration.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(FileFormatError, match="malformed calibration file") as err:
        read_calibration(path)
    assert re.search(pattern, str(err.value)), (pattern, str(err.value))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_spoilt_stream_config_key_is_named(scratch, data):
    doc, pattern = _spoilt(_STREAMS, fileio._CONFIG, data.draw)
    path = scratch / "streams.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(FileFormatError) as err:
        read_stream_config(path)
    assert re.search(pattern, str(err.value)), (pattern, str(err.value))


def test_optional_key_given_null_takes_its_default(scratch):
    """Every optional key of the model and the stream config, given as null,
    reads as if it were left out."""
    def config(doc):
        (scratch / "streams.yaml").write_text(yaml.safe_dump(doc))
        return read_stream_config(scratch / "streams.yaml")

    def model(doc):
        m = load_hand_model(yaml.safe_dump(doc))
        return (m.rest_pose.tolist(), [a.tolist() for a in m.chains],
                [f.taxels and f.taxels.positions.tolist() for f in m.fingers])

    for doc, table, read in ((_MODEL, hand_model._DOCUMENT, model),
                             (_STREAMS, fileio._CONFIG, config)):
        optional = [location for location, _, required in _locations(doc, table) if not required]
        assert optional
        for *steps, key in optional:
            null, absent = copy.deepcopy(doc), copy.deepcopy(doc)
            reduce(getitem, steps, null)[key] = None
            del reduce(getitem, steps, absent)[key]
            assert read(null) == read(absent), (*steps, key)


# --- the one loader ------------------------------------------------------------

def test_package_loader_builds_the_pure_python_documents(tmp_path, calibration):
    assert LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    assert fileio.LOADER is hand_model.LOADER is LOADER
    models = [v for k, v in vars(conftest).items()
              if k.isupper() and isinstance(v, str) and "\nfingers:" in v]
    assert len(models) == 7
    write_calibration(tmp_path / "calibration.yaml", calibration)
    texts = [p.read_text() for p in sorted(DATA.glob("*.yaml"))] + models + [
        (tmp_path / "calibration.yaml").read_text(), README_STREAMS]
    for text in texts:
        pure, package = yaml.load(text, Loader=yaml.SafeLoader), yaml.load(text, Loader=LOADER)
        assert package == pure and repr(package) == repr(pure)  # repr tells 1 from 1.0


@pytest.mark.parametrize("loader", [LOADER, yaml.SafeLoader], ids=["package", "pure_python"])
def test_invalid_yaml_fails_alike_under_either_loader(tmp_path, capsys, monkeypatch, calibration,
                                                      loader):
    class Counted(loader):
        made = 0

        def __init__(self, stream):
            Counted.made += 1
            super().__init__(stream)

    for module in (fileio, hand_model):
        monkeypatch.setattr(module, "LOADER", Counted)
    bad = tmp_path / "bad.yaml"
    bad.write_text("{unbalanced: [\n")
    for read in (read_calibration, read_stream_config):
        with pytest.raises(FileFormatError, match="invalid YAML"):
            read(bad)
    with pytest.raises(ModelError, match="not valid YAML"):
        load_hand_model("fingers: [unclosed")

    write_calibration(tmp_path / "calibration.yaml", calibration)
    model, pinch = DATA / "rapid_hand_20dof.yaml", DATA / "gestures" / "pinch.traj"
    for n, args in enumerate([
            ["syncsim", "--config", bad],
            ["calibrate", "--model", bad, "--keypoints", DATA / "human_calibration.traj"],
            ["retarget", "--model", model, "--calibration", bad, "--input", pinch],
            ["retarget", "--model", bad, "--calibration", tmp_path / "calibration.yaml",
             "--input", pinch]]):
        out = tmp_path / f"out{n}"
        assert main([*map(str, args), "--out", str(out)]) == EXIT_ERROR
        assert "YAML" in capsys.readouterr().err
        assert not out.exists()
    assert Counted.made == 8  # the retarget with a bad calibration parses the model first
