"""dexretarget: hand motion retargeting, hand kinematics, dexterity
metrics, and multi-sensor acquisition simulation."""

__version__ = "0.1.0"

from .hand_model import HandModel, ModelError, load_hand_model, load_hand_model_file
from .kinematics import (TouchPointCloud, forward_kinematics, jacobian, joint_to_motor,
                         motor_to_joint, taxel_point_cloud)
from .metrics import manipulability_volume, opposability_volume
from .retarget import (CalibrationData, CouplingState, KeypointFrame, RetargetProblem,
                       RetargetResult, StreamStep, adjust_keypoints,
                       baseline_uniform_scaling, calibrate, coupling_weights,
                       default_pairs, objective, objective_gradient, retarget_stream,
                       solve_retarget)
from .syncsim import (AlignmentReport, EventLog, FrameSet, StreamConfig, StreamSpec,
                      alignment_report, assemble_frames, reference_hard_config,
                      reference_soft_config, simulate)

__all__ = [
    "__version__",
    "HandModel", "ModelError", "load_hand_model", "load_hand_model_file",
    "TouchPointCloud", "forward_kinematics", "jacobian", "joint_to_motor",
    "motor_to_joint", "taxel_point_cloud",
    "manipulability_volume", "opposability_volume",
    "CalibrationData", "CouplingState", "KeypointFrame", "RetargetProblem",
    "RetargetResult", "StreamStep", "adjust_keypoints", "baseline_uniform_scaling",
    "calibrate", "coupling_weights", "default_pairs", "objective",
    "objective_gradient", "retarget_stream", "solve_retarget",
    "AlignmentReport", "EventLog", "FrameSet", "StreamConfig", "StreamSpec",
    "alignment_report", "assemble_frames", "reference_hard_config",
    "reference_soft_config", "simulate",
]
