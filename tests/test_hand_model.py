"""Model document loading and validation."""

import dataclasses

import numpy as np
import pytest
import yaml

from conftest import DATA
from dexretarget.cli import EXIT_ERROR, main
from dexretarget.hand_model import ModelError, load_hand_model

MINIMAL = """
name: mini
fingers:
  - name: arm
    joints:
      - {name: j1, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-1.0, 1.0]}
      - {name: j2, axis: [0.0, 0.0, 1.0], origin_translation: [1.0, 0.0, 0.0], limits: [-1.0, 1.0]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: j2, offset: [1.0, 0.0, 0.0]}
"""
WITH_TAXELS = MINIMAL + """
taxel_layouts:
  - {finger: arm, rows: 2, cols: 3, origin: [0.0, 0.0, 0.0], row_step: [0.001, 0.0, 0.0], col_step: [0.0, 0.001, 0.0]}
"""


def test_minimal_document_loads():
    m = load_hand_model(MINIMAL)
    assert m.total_dof == 2
    assert len(m.fingers) == 1
    assert m.fingers[0].tip_index == 1
    assert m.keypoint_counts() == (2,)


def test_reference_model_shape(robot):
    assert robot.total_dof == 20
    assert len(robot.fingers) == 5
    assert robot.fingers[0].name == "thumb"
    assert all(f.dof == 4 for f in robot.fingers)
    assert robot.keypoint_counts() == (5, 5, 5, 5, 5)
    for f in robot.fingers:
        assert f.taxels is not None
        assert f.taxels.rows == 12 and f.taxels.cols == 8
        assert f.taxels.positions.shape == (96, 3)


def test_taxel_grid_generation(robot):
    lay = robot.fingers[1].taxels
    origin = lay.positions[0]
    # row-major: entry (r, c) sits at index r * cols + c
    row_step = lay.positions[8] - origin
    col_step = lay.positions[1] - origin
    expect = origin + 3 * row_step + 5 * col_step
    np.testing.assert_allclose(lay.positions[3 * 8 + 5], expect, atol=1e-15)


def test_finger_slices_partition_q(robot):
    seen = []
    for i in range(len(robot.fingers)):
        sl = robot.finger_slice(i)
        seen.extend(range(sl.start, sl.stop))
    assert seen == list(range(robot.total_dof))


def test_limits_and_rest_pose(robot):
    assert np.all(robot.lower_limits < robot.upper_limits)
    assert np.all(robot.rest_pose >= robot.lower_limits)
    assert np.all(robot.rest_pose <= robot.upper_limits)


def test_keypoint_lookup(robot):
    thumb = yaml.safe_load((DATA / "rapid_hand_20dof.yaml").read_text())["fingers"][0]
    tip = thumb["keypoints"][4]
    joint_names = [j["name"] for j in thumb["joints"]]
    link, offset = robot.keypoint(0, 4)
    assert link == joint_names.index(tip["attached_to"]) + 1 == 4
    assert offset.tolist() == tip["offset"] == [0.025, 0.0, 0.0]
    for i, j in ((0, 9), (-1, 4), (5, 4), (0, -1)):
        with pytest.raises(KeyError):
            robot.keypoint(i, j)


def test_model_is_immutable(robot):
    arrays = [*robot.chains, robot.lower_limits, robot.upper_limits, robot.rest_pose,
              *(f.taxels.positions for f in robot.fingers)]
    for a in arrays:
        with pytest.raises(ValueError):
            a.reshape(-1)[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        robot.fingers[0].dof = 9


def _expect_error(doc, needle):
    with pytest.raises(ModelError) as err:
        load_hand_model(doc)
    assert needle in str(err.value)


def test_bad_limits_rejected():
    _expect_error(MINIMAL.replace("limits: [-1.0, 1.0]", "limits: [1.0, -1.0]"), "lower")


def test_non_unit_axis_rejected():
    _expect_error(MINIMAL.replace("axis: [0.0, 0.0, 1.0]", "axis: [0.0, 0.0, 2.0]"), "axis")


def test_unknown_parent_rejected():
    doc = MINIMAL.replace("{name: j2, axis", "{name: j2, parent: ghost, axis")
    _expect_error(doc, "fingers[arm].joints[1]: joint 'j2' names parent 'ghost', "
                       "but joints are listed base to tip")


def test_branching_chain_rejected():
    doc = MINIMAL.replace("{name: j2, axis", "{name: j2, parent: base, axis")
    _expect_error(doc, "fingers[arm].joints[1]: joint 'j2' names parent 'base', "
                       "but joints are listed base to tip")


def test_cyclic_chain_rejected():
    doc = """
name: cyclic
fingers:
  - name: arm
    joints:
      - {name: j1, parent: j2, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-1.0, 1.0]}
      - {name: j2, parent: j1, axis: [0.0, 0.0, 1.0], origin_translation: [1.0, 0.0, 0.0], limits: [-1.0, 1.0]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: j2}
"""
    _expect_error(doc, "fingers[arm].joints[0]: joint 'j1' names parent 'j2', "
                       "but joints are listed base to tip")


def test_explicit_parents_in_order_load_as_listed():
    doc = MINIMAL.replace("{name: j1, axis", "{name: j1, parent: base, axis") \
        .replace("{name: j2, axis", "{name: j2, parent: j1, axis")
    m, plain = load_hand_model(doc), load_hand_model(MINIMAL)
    assert all(np.array_equal(a, b) for a, b in zip(m.chains, plain.chains))


def test_tip_first_listing_rejected():
    doc = """
name: tip_first
fingers:
  - name: arm
    joints:
      - {name: j2, parent: j1, axis: [0.0, 0.0, 1.0], origin_translation: [1.0, 0.0, 0.0], limits: [-1.0, 1.0]}
      - {name: j1, parent: base, axis: [0.0, 0.0, 1.0], origin_translation: [0.0, 0.0, 0.0], limits: [-1.0, 1.0]}
    keypoints:
      - {index: 0, name: root, attached_to: base}
      - {index: 1, name: tip, attached_to: j2}
"""
    _expect_error(doc, "fingers[arm].joints[0]: joint 'j2' names parent 'j1', "
                       "but joints are listed base to tip")


def test_keypoint_indices_must_be_contiguous():
    _expect_error(MINIMAL.replace("index: 1, name: tip", "index: 2, name: tip"),
                  "contiguous")
    _expect_error(MINIMAL.replace("index: 1, name: tip", "index: one, name: tip"),
                  "expected an integer")
    root = "      - {index: 0, name: root, attached_to: base}\n"
    _expect_error(MINIMAL.replace(root, "") + root,  # listed out of index order
                  "listed by index, contiguous from 0, got [1, 0]")


def test_at_least_two_keypoints():
    doc = MINIMAL.replace('      - {index: 1, name: tip, attached_to: j2, offset: [1.0, 0.0, 0.0]}\n', "")
    _expect_error(doc, "at least 2 keypoints")


def test_keypoint_unknown_attachment():
    _expect_error(MINIMAL.replace("attached_to: j2", "attached_to: nowhere"), "attached_to")
    on_link = MINIMAL.replace("{name: j2, axis", "{name: j2, child: j2_link, axis") \
        .replace("attached_to: j2", "attached_to: j2_link")  # a link name, not a joint's
    _expect_error(on_link, "fingers[arm].joints[1]: unknown key 'child'")


@pytest.mark.parametrize("old, new, needle", [
    ("name: mini", "name: mini\nrest_pos: [0.0, 0.0]", "document: unknown key 'rest_pos'"),
    ("    keypoints:", "    keypoint:", "fingers[arm]: unknown key 'keypoint'"),
    ("{name: j2, axis", "{name: j2, parnt: ghost, axis", "fingers[arm].joints[1]: unknown key 'parnt'"),
    ("offset: [1.0", "offst: [1.0", "fingers[arm].keypoints[1]: unknown key 'offst'"),
    ("rows: 2", "rows: 2, colums: 3", "taxel_layouts[0]: unknown key 'colums'"),
], ids=["document", "finger", "joint", "keypoint", "taxel_layout"])
def test_misspelt_key_rejected(old, new, needle):
    load_hand_model(WITH_TAXELS)
    _expect_error(WITH_TAXELS.replace(old, new, 1), needle)


@pytest.mark.parametrize("doc, needle", [
    (MINIMAL[:MINIMAL.index("    keypoints:")] + "    keypoints: 5\n",
     "fingers[arm].keypoints: expected a list of keypoint entries, got 5"),
    (MINIMAL[:MINIMAL.index("    keypoints:")] + "    keypoints:\n",
     "fingers[arm].keypoints: expected a list of keypoint entries, got None"),
    (MINIMAL + "taxel_layouts: 5\n", "taxel_layouts: expected a list of layout entries, got 5"),
], ids=["keypoints_number", "keypoints_empty", "taxel_layouts_number"])
def test_entry_list_that_is_not_a_list_rejected(doc, needle):
    _expect_error(doc, needle)


@pytest.mark.parametrize("old, new, needle", [
    ("axis: [0.0, 0.0, 1.0]", "axis: [false, false, true]",
     "fingers[arm].joints[0].axis: expected 3 numbers, got [False, False, True]"),
    ("limits: [-1.0, 1.0]", "limits: [false, true]",
     "fingers[arm].joints[0].limits: expected 2 numbers, got [False, True]"),
    ("limits: [-1.0, 1.0]", "limits: [-1.0, 1.0, 7.0]",
     "fingers[arm].joints[0].limits: expected 2 numbers, got [-1.0, 1.0, 7.0]"),
    ("index: 1,", "index: true,", "fingers[arm].keypoints[1].index: expected an integer, got True"),
    ("index: 1,", "index: 1.7,", "fingers[arm].keypoints[1].index: expected an integer, got 1.7"),
    ("rows: 2", "rows: 2.9", "taxel_layouts[0].rows: expected an integer, got 2.9"),
    ("name: mini", "name: mini\nrest_pose: [true, false]",
     "rest_pose: expected a list of numbers, got [True, False]"),
], ids=["axis_bools", "limits_bools", "limits_three", "index_bool", "index_fraction",
        "rows_fraction", "rest_pose_bools"])
def test_value_of_the_wrong_kind_rejected(tmp_path, capsys, old, new, needle):
    doc = WITH_TAXELS.replace(old, new, 1)
    _expect_error(doc, needle)
    path, out = tmp_path / "model.yaml", tmp_path / "out"
    path.write_text(doc)
    assert main(["metrics", "--model", str(path), "--metric", "opposability", "--samples", "10",
                 "--out", str(out)]) == EXIT_ERROR
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_joint_name_rejected():
    doc = MINIMAL.replace("{name: j2, axis", "{name: j1, axis").replace("attached_to: j2", "attached_to: j1")
    _expect_error(doc, "fingers[arm].joints[1]: joint 'j1' repeats an earlier joint's name")


def test_joint_named_base_rejected():
    _expect_error(MINIMAL.replace("{name: j1, axis", "{name: base, axis"),
                  "fingers[arm].joints[0]: joint 'base' takes the name reserved for the palm")


def test_duplicate_finger_name():
    doc = MINIMAL + MINIMAL[MINIMAL.index("  - name: arm"):]
    _expect_error(doc, "duplicate finger name")


def test_rest_pose_validation():
    _expect_error(MINIMAL + "\nrest_pose: [2.0, 0.0]\n", "within joint limits")
    _expect_error(MINIMAL + "\nrest_pose: [0.0]\n", "expected 2 values")
    _expect_error(MINIMAL + "\nrest_pose: [a, 0.0]\n", "rest_pose: expected a list of numbers, got ['a', 0.0]")
    _expect_error(MINIMAL + "\nrest_pose: [.nan, 0.0]\n", "within joint limits")


def test_taxel_layout_validation():
    good = WITH_TAXELS
    m = load_hand_model(good)
    assert m.fingers[0].taxels.positions.shape == (6, 3)
    _expect_error(good.replace("finger: arm", "finger: leg"), "unknown finger")
    _expect_error(good.replace("rows: 2", "rows: 0"), "positive")
    _expect_error(good.replace("rows: 2", "rows: two"),
                  "taxel_layouts[0].rows: expected an integer, got 'two'")
    dup = good + good[good.index("  - {finger: arm"):]
    _expect_error(dup, "already has a taxel layout")


def test_not_yaml_rejected():
    _expect_error("fingers: [unclosed", "YAML")
    _expect_error("- just\n- a list\n", "mapping")
