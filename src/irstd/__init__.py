"""Infrared small-target detection toolkit: synthetic data generation, a
lightweight extractor network trained under a count-classification
constraint, adaptive-threshold detection, and evaluation metrics."""

from .tensor import Rng, finite_diff_grad, stats
from .tem import NetConfig, TemNet, budget, build_tem, count_actual_ops, extract
from .scm import ScmNet, build_scm, classify
from .loss import loss_b, loss_t, ssim
from .synth import (FusionLocation, TrainingTuple, fuse_one, gaussian_template,
                    generate_tuples, make_tuple)
# the pipeline entry point stays at irstd.detect.detect so the submodule
# name is not shadowed by the function
from .detect import Detection, adaptive_threshold, connected_components, normalize01
from .eval import bsf, match_and_score, max_mean, max_median, roc, scr, scrg, tophat
from .train import (Adam, FrozenScm, TrainConfig, freeze_scm, joint_loss,
                    train_scm, train_tem)

__version__ = "0.1.0"
