"""Clifford-valued linear canonical Stockwell transform toolbox.

Submodules
----------
algebra    blade-indexed Clifford arithmetic (bitmask blades, signed tables)
grid       centered lattices, quadrature, complex pairs, phase modulation
windows    analytic window catalogue (Gaussian, difference-of-Gaussians)
cft        Clifford Fourier transform and periodic convolution
lct        Clifford linear canonical transform and its convolution
stockwell  anisotropically scaled, rotated window analysis
transform  the headline transform, its theorems and reconstructions
io         bit-exact binary grid/volume container with JSON sidecars
verify     property suites behind `clcst verify`
cli        argparse front end
"""

from .algebra import (
    AlgebraContext,
    Multivector,
    algebra,
    clifford_conjugate,
    geometric_product,
    grade_project,
    pseudoscalar_exp,
    reversion,
    scalar_part,
    transform_algebra,
)
from .grid import GridSignal, GridSpec, chirp_multiply, inner_product, norm_l2, sample
from .cft import cft_forward, cft_inverse, convolve
from .lct import LCTParams, clct_forward, clct_kernel, lct_convolve
from .stockwell import Rotation, ScalingMatrix, cst, window_family
from .transform import (
    admissibility_profile,
    clcst,
    covariance_suite,
    orthogonality_check,
    reconstruct_marginal,
    reconstruct_resolution,
    reproducing_kernel,
)
from .volume import CLCSTVolume
from .windows import DOGWindow, GaussianWindow

__version__ = "0.1.0"
