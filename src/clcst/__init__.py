"""Clifford-valued linear canonical Stockwell transform toolbox.

Submodules
----------
algebra    blade-indexed Clifford arithmetic (bitmask blades, signed tables)
grid       centered lattices, quadrature, complex pairs, phase modulation
windows    analytic window catalogue (Gaussian, difference-of-Gaussians)
cft        Clifford Fourier transform and periodic convolution
lct        Clifford linear canonical transform and its convolution
stockwell  anisotropically scaled, rotated window analysis
transform  the headline transform, its evaluation paths and reconstructions
volume     transform volumes and their quadrature weights
io         bit-exact binary grid/volume container with JSON sidecars
verify     the checks behind `clcst verify` and the oracles only they run
cli        argparse front end

Import the submodules themselves; the package re-exports nothing.
"""

__version__ = "0.1.0"
