"""``repro.postprocess`` — PCA-based error-bound guarantee (Sec. 3.5).

After decompression, the residual ``x - x_R`` is projected onto a PCA
basis fitted on training residuals; enough quantized coefficients are
kept (entropy-coded into the ``G`` payload of Eq. 11) that the final
reconstruction satisfies ``||x - x_G||_2 <= tau``.  Blocks the basis
cannot fix within budget fall back to direct residual quantization, so
the bound holds unconditionally.
"""

from .bound import BoundResult, ErrorBoundCorrector
from .coding import decode_ints, encode_ints, encoded_size_bound
from .pca import ResidualPCA, blockify, unblockify
from .qoi import (DerivativeQoI, LinearQoI, QoIRecord, QuadraticQoI,
                  evaluate_qois, mean_qoi, region_average_qoi,
                  temporal_mean_qoi)

__all__ = ["ResidualPCA", "blockify", "unblockify", "ErrorBoundCorrector",
           "BoundResult", "encode_ints", "decode_ints", "encoded_size_bound",
           "LinearQoI", "QuadraticQoI", "DerivativeQoI", "QoIRecord",
           "evaluate_qois", "mean_qoi", "region_average_qoi",
           "temporal_mean_qoi"]
