"""Uplink FBMC/OQAM massive-MIMO link simulator and analysis toolkit.

Layers: fbmc (filter bank core), channel (PDPs, fading, CSI), stage1
(high-rate frequency-sampled equalizers), stage2 (two-step decimation to
low-rate per-subcarrier equalizers), theory (closed-form SINR machinery),
metrics (Monte Carlo measurement), cli/config (presets and run files).
"""

from .errors import ConfigError, NumericalError, SingularChannelError
from .fbmc import (PrototypeFilter, design_prototype, phase_factor, OqamGrid,
                   qam_to_oqam, modulate, demodulate)
from .channel import (PdpProfile, load_pdp, make_rng, trial_rng,
                      ChannelRealization, draw_channel, apply_channel,
                      add_awgn, FreqCsi, freq_csi, estimate_csi_mmse)
from .stage1 import (HighRateEqualizer, SingleTapEqualizer, alpha_bound,
                     design_highrate, apply_highrate, single_tap)
from .stage2 import (DecimationPlan, LowRateEqualizerBank,
                     build_lowrate_receiver, equalize_lowrate, recover_symbols)
from .theory import (tau, ErrorStats, error_stats, interference_table,
                     average_power, noise_power, sir_upper_bound,
                     theoretical_sinr)
from .metrics import (SchemeSpec, CoeffSet, SinrReport, SweepResult, sweep,
                      run_mse)
from .config import (SimConfig, parse_config, render_config, fingerprint,
                     channel_assignment, P_SYM)
from .cli import run_preset, emit_plot_script, main

__version__ = "0.1.0"
