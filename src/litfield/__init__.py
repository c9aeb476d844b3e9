"""Lighting reconstruction from posed RGB-D camera observations.

Converts streams of near/far-field observations into equirectangular
environment maps at a chosen reconstruction position. See the geometry
module docstring for coordinate conventions.
"""

from .capture import (CapturePolicyConfig, GateDecision, GuidancePlan, MotionGate,
                      PoseSample, motion_gate, plan_guided_movement)
from .farfield import (ExtrapolationMode, ExtrapolationTable, UnitSphereAnchorSet,
                       extrapolate, fill_unobserved, generate_anchors,
                       precompute_table, sparse_directions, splat_to_anchors)
from .geometry import (CameraFrame, ColorImage, DepthImage, Intrinsics, Observation,
                       Pose, SphericalDir, classify_observation, dir_to_equirect,
                       equirect_pixel_dirs, unproject)
from .nearfield import (DensePointCloudBuffer, EnvMapLayer, IcpResult,
                        NearFieldBoundary, PointCloud, filter_boundary,
                        generate_dense_cloud, merge_multires, project_multires,
                        register_icp)
from .session import (EnvironmentMap, Preset, ReconstructionSession, SessionConfig,
                      create_session, preset_config)

__version__ = "0.1.0"
