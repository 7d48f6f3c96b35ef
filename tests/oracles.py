"""Independent verification oracles used by the test suite.

These deliberately avoid the production code paths: the Dawson oracle is a
high-precision power/asymptotic series in mpmath, and the PSD variance
oracle is the Parseval identity. The CSV oracle is the row-by-row writer
the block writer replaced: one cell at a time, one write per row. The rank
oracle is the fitter's SVD-only Jacobian rank check, which the Gram-matrix
screen in front of it must never contradict.
"""

import mpmath
import numpy as np


def dawson_series(x, dps=150):
    """Dawson function by its Maclaurin series summed in high precision:
    D(x) = sum_n (-2)^n x^(2n+1) / (2n+1)!!."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        term = xm
        total = xm
        n = 0
        while abs(term) > mpmath.mpf(10) ** (-dps + 10) * max(abs(total), 1):
            n += 1
            term = term * (-2) * xm * xm / (2 * n + 1)
            total += term
            if n > 10000:
                raise RuntimeError("series did not converge")
        return float(total)


def dawson_asymptotic(x, n_terms=8):
    """Large-|x| expansion D(x) ~ sum_n (2n-1)!! / (2^(n+1) x^(2n+1))."""
    total = 0.0
    term = 1.0 / (2.0 * x)
    total += term
    for n in range(1, n_terms):
        term *= (2 * n - 1) / (2.0 * x * x)
        total += term
    return total


def white_noise_variance(level, fs):
    """Parseval: variance of a white phase-noise series with one-sided PSD
    ``level`` sampled at ``fs`` is level * fs / 2."""
    return level * fs / 2.0


def write_csv_rowwise(path, header, columns):
    """Reference CSV writer: header row, then each row's cells formatted one
    at a time as ``repr(float(cell))``, comma-joined, one LF-terminated
    write per row."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(repr(float(c[i])) for c in columns) + "\n")


def jacobian_rank_defect(jac, rtol=1e-10):
    """The SVD-only rank check on a Jacobian: None when it is full rank,
    else the kind of defect ("non-finite", "no influence" for a zero
    column, "degenerate" when the column-normalized Jacobian's singular
    values have a ratio of at most ``rtol``)."""
    if not np.all(np.isfinite(jac)):
        return "non-finite"
    norms = np.linalg.norm(jac, axis=0)
    if np.any(norms == 0.0):
        return "no influence"
    svals = np.linalg.svd(jac / norms, compute_uv=False)
    if svals[-1] <= rtol * svals[0]:
        return "degenerate"
    return None
