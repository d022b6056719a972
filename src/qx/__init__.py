"""Workbench for SU(d)-covariant valence-bond quasi codes.

Builds the codes, evaluates exact and approximate correctability with the
canonical recovery channel, contracts every closed-form expectation value by
transfer matrix and by dense brute force, and simulates noisy logical
computations against their gate-count budgets.  Public names are imported
from their modules (``qx.vbs_code``, ``qx.qec_core`` and so on); each
module's ``__all__`` lists them.
"""

__version__ = "0.1.0"
