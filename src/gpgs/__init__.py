"""Gaussian-process densification of sparse SfM point clouds.

Trains multi-output GPs mapping 2D pixel coordinates to 3D position and
colour, samples candidate pixels around the training points, filters the
predictions by colour-variance quantile, and merges the survivors with the
original sparse cloud into an enriched PLY ready for splatting-style
initialisation.
"""

from .densify import (
    FilterConfig,
    PredictedPointSet,
    SamplingConfig,
    VarianceReport,
    filter_by_variance,
    generate_samples,
    infer_dense,
    merge_clouds,
    variance_reduction_report,
)
from .gp import (
    KernelConfig,
    OutputNormalizer,
    PosteriorBatch,
    TrainConfig,
    TrainedGP,
    default_kernel,
    gram_matrix,
    kernel_value,
    nll,
    nll_gradient,
    posterior,
    train_gp,
)
from .metrics import (
    HoldoutReport,
    MetricsBundle,
    chamfer_distance,
    evaluate_holdout,
    r2_score,
    rmse,
)
from .model_io import load_model, save_model
from .pointcloud import DensifiedCloud, PointSource
from .sfm_io import (
    DepthMap,
    PixelToPointDataset,
    PointsTable,
    SparseModel,
    build_pixel_dataset,
    parse_colmap_model,
    read_depth_pfm,
    select_key_frames,
    split_dataset,
    write_ply,
)

__version__ = "0.1.0"
