"""Bad input to the public entry points raises ConfigError, the error the CLI
maps to exit code 2."""

import numpy as np
import pytest

from fbmclink.channel import (add_awgn, apply_channel, draw_channel,
                              estimate_csi_mmse, freq_csi, load_pdp)
from fbmclink.errors import ConfigError
from fbmclink.fbmc import demodulate, design_prototype, modulate
from fbmclink.stage1 import apply_highrate, design_highrate
from fbmclink.stage2 import (DecimationPlan, build_lowrate_receiver,
                             equalize_lowrate)
from fbmclink.theory import error_stats

_PF = design_prototype(4, 16)
_CSI = freq_csi(np.ones((2, 1, 1)), 16)
_PEDA = load_pdp("PedA", 7.68e6)


def _bank():
    return build_lowrate_receiver(_CSI, _PF, DecimationPlan(16, 4),
                                  subcarriers=[0])


_SITES = {     # site: (call, what its message names)
    "design_prototype kappa": (lambda: design_prototype(5, 16), "kappa=5"),
    "design_prototype M": (lambda: design_prototype(4, 12), "power of two"),
    "modulate": (lambda: modulate(np.zeros((1, 8, 4)), _PF), "grid has M=8"),
    "demodulate": (lambda: demodulate(np.zeros(_PF.L_f - 1), _PF),
                   "stream too short"),
    "draw_channel": (lambda: draw_channel([_PEDA], 0, 1), "N_r must be >= 1"),
    "apply_channel": (lambda: apply_channel(np.zeros((2, 8)),
                                            np.ones((2, 1, 1))),
                      "2 streams for 1 users"),
    "add_awgn": (lambda: add_awgn(np.zeros(8), -1.0, 1), "noise variance"),
    "estimate_csi_mmse": (lambda: estimate_csi_mmse(_CSI, 0.0, 0.1, 1),
                          "P_p must be positive"),
    "apply_highrate": (lambda: apply_highrate(
        np.zeros((3, 8)), design_highrate(_CSI, alpha=1)),
        "3 antenna streams for N_r=2"),
    "equalize_lowrate antennas": (lambda: equalize_lowrate(
        np.zeros((3, 100)), _bank(), _PF), "3 antenna streams for N_r=2"),
    "equalize_lowrate length": (lambda: equalize_lowrate(
        np.zeros((2, _PF.L_f - 1)), _bank(), _PF), "one analysis window"),
    "error_stats": (lambda: error_stats([_PEDA, _PEDA], 16, 2, 1, (0, 1)),
                    "need N_r > N_t"),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_bad_input_raises_config_error(site):
    call, match = _SITES[site]
    with pytest.raises(ConfigError, match=match):
        call()
