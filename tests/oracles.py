"""Reference constructions shared by several test files."""

import numpy as np


def transmux_response(pf, m, m_prime):
    """Transmultiplexer response F_{m m'}[l] = (f_{m'} conv f_m^*[-.])[l] by
    direct convolution.

    Returns the full sequence of length 2*L_f-1; entry i corresponds to lag
    l = i - (L_f-1). F_{mm}[0] equals 1 by normalization.
    """
    f_mp = pf.subcarrier_filter(m_prime)
    f_m = pf.subcarrier_filter(m)
    return np.convolve(f_mp, np.conj(f_m[::-1]))
