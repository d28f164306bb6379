"""Convex integrands: gallery, convexity diagnostics and regularization tools."""

from .base import Integrand, eigen_ratio_batch, validate_integrand
from .gallery import gallery, integrand_from_config, integrand_to_config
from .profiles import (
    UhlenbeckProfile,
    constant_profile,
    power_profile,
    bounded_power_profile,
    uhlenbeck_indices,
)
from .analysis import AnnulusSampler, GrowthReport, estimate_K, verify_growth
from .regularize import (
    MollifierRule,
    kernel_second_moment,
    mollify,
    moreau_yosida,
    prox_point,
)

__all__ = [
    "AnnulusSampler",
    "GrowthReport",
    "Integrand",
    "MollifierRule",
    "UhlenbeckProfile",
    "bounded_power_profile",
    "constant_profile",
    "eigen_ratio_batch",
    "estimate_K",
    "gallery",
    "integrand_from_config",
    "integrand_to_config",
    "kernel_second_moment",
    "mollify",
    "moreau_yosida",
    "power_profile",
    "prox_point",
    "uhlenbeck_indices",
    "validate_integrand",
    "verify_growth",
]
