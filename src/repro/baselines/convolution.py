"""The convolution algorithm of Aguilera et al. (SOSP 2003) as a baseline.

"Our pathmap algorithm is similar to the convolution algorithm, in that
both uses time series analysis and can handle non-RPC-style messages.
While the convolution algorithm is primarily intended for offline
analysis, pathmap uses compact trace representations and a series of
optimizations, which jointly, make it suitable for online performance
diagnosis." (paper Section 2)

Differences captured here, mirroring what Figure 9 compares:

* correlation is computed with **FFT over the full lag range** (no
  transaction-delay bound ``T_u``),
* series are **dense** (no burst compression, no RLE),
* analysis is **from scratch** every window (nothing incremental).

The output is the same service-graph structure, so accuracy can be
compared head-to-head with pathmap.
"""

from __future__ import annotations

from typing import Optional

from repro.config import PathmapConfig
from repro.core.correlation import CorrelationSeries, correlate_fft
from repro.core.pathmap import Pathmap, PathmapResult, TraceWindow


class ConvolutionAnalyzer(Pathmap):
    """Offline convolution-style analysis (FFT, full lag range, dense).

    Parameters
    ----------
    config:
        Shared analysis parameters (tau, omega, spike threshold). The
        ``max_transaction_delay`` bound is ignored by design -- the
        convolution algorithm correlates the full window.
    max_lag:
        Optional lag cap for the *spike search only* (the correlation
        itself is still computed over the full range by the FFT); by
        default the full range is searched.
    """

    def __init__(self, config: PathmapConfig, max_lag: Optional[int] = None) -> None:
        super().__init__(config, method="fft", correlation_provider=self._convolve)
        self._search_lag = max_lag

    def _convolve(self, window: TraceWindow, ref_key, edge_key) -> CorrelationSeries:
        return correlate_fft(
            window.edge_series(*ref_key),
            window.edge_series(*edge_key),
            max_lag=self._search_lag,
        )

    def analyze(self, window: TraceWindow) -> PathmapResult:
        """Run the full offline analysis over one window."""
        return super().analyze(window)
