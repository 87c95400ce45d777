"""Reference constructions shared by several test files."""

import numpy as np

from fbmclink.fbmc import OqamGrid


def transmux_response(pf, m, m_prime):
    """Transmultiplexer response F_{m m'}[l] = (f_{m'} conv f_m^*[-.])[l] by
    direct convolution.

    Returns the full sequence of length 2*L_f-1; entry i corresponds to lag
    l = i - (L_f-1). F_{mm}[0] equals 1 by normalization.
    """
    f_mp = pf.subcarrier_filter(m_prime)
    f_m = pf.subcarrier_filter(m)
    return np.convolve(f_mp, np.conj(f_m[::-1]))


def window(table, dn, L_h):
    """V[l, m'] = F_{mm'}[(dn+alpha) M/2 - l] j^{m'-m-dn} for every m' of an
    `InterferenceTable`, l = 0..M+L_h-2 (zero outside the table), shape
    (M+L_h-1, M)."""
    M, F = table.M, table.F
    n, width = M + L_h - 1, F.shape[1]
    i0 = (dn + table.alpha) * (M // 2) + table.L_f - 1    # at l = 0
    l0, l1 = max(0, i0 - width + 1), min(n, i0 + 1)
    V = np.zeros((n, M), dtype=complex)
    if l0 < l1:
        V[l0:l1] = F[:, i0 - l1 + 1:i0 - l0 + 1][:, ::-1].T
    V *= np.array([1, 1j, -1, -1j])[(np.arange(M) - table.m - dn) % 4]
    return V


def oqam_to_qam(grid):
    """Inverse of `qam_to_oqam` (exact round trip)."""
    s = grid.symbols if isinstance(grid, OqamGrid) else np.asarray(grid)
    return s[..., 0::2] + 1j * s[..., 1::2]
