"""Hand-written reference for the drift identities ``g``, ``e`` and ``f``.

Each function evaluates its identity straight from the spec's fields, adding
terms in the order the formula writes them and leaving out a term with a zero
factor (a constant field reads as its float).  The spec builds the same terms
once (``operators._identity_terms``); the tests compare the two bit for bit,
so a wrong, missing or reordered built term shows up here.
"""

import numpy as np

from kimura_lab.fields import ScalarField


def _reader(states):
    """``read(field)`` at ``states``: None for a zero field, the float of one
    with a ``value``, else its batch of values; each field is evaluated once."""
    memo = {}  # fields hash by identity

    def read(entry):
        if entry not in memo:
            if entry.is_zero:
                memo[entry] = None
            elif entry.value is not None:
                memo[entry] = entry.value
            else:
                memo[entry] = entry.evaluate_batch(states)
        return memo[entry]

    return read


def _prod(read, *factors):
    """Left-to-right product of fields (read by ``read``) and arrays; None when
    a factor is None or a zero field."""
    if any(f is None or (isinstance(f, ScalarField) and f.is_zero) for f in factors):
        return None
    out = None
    for f in factors:
        val = read(f) if isinstance(f, ScalarField) else f
        out = val if out is None else out * val
    return out


def _sum(terms):
    """Left-to-right sum of the terms that are not None; None when none is."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def reference_g(op, states):
    """``g_i = b_i a_ii + x_i (d_xi a_ii + sum_j (a~_ij + delta_ij a~_ii
    + x_j d_xj a~_ij + a~_ij (b_j - 1)) + sum_l d_yl c_il)``, shape (..., n)."""
    n, m = op.dims.n, op.dims.m
    states = np.asarray(states, dtype=float)
    read = _reader(states)
    g = np.zeros(states.shape[:-1] + (n,))
    for i in range(n):
        terms = [read(op.a_diag[i].partial(i))]
        for j in range(n):
            at = op.a_tilde[i, j]
            terms.append(read(at))
            terms.append(_prod(read, states[..., j], at.partial(j)))
            if not at.is_zero:
                b_j = read(op.b[j])
                terms.append(read(at) * ((0.0 if b_j is None else b_j) - 1.0))
            if i == j:
                terms.append(read(at))
        terms += [read(op.c[i, l].partial(n + l)) for l in range(m)]
        g_i = _sum([_prod(read, op.b[i], op.a_diag[i]), _prod(read, states[..., i], _sum(terms))])
        if g_i is not None:
            g[..., i] = g_i
    return g


def reference_e(op, states):
    """``e_l = sum_i (x_i d_xi c_il + b_i c_il) + sum_k d_yk d_lk``, shape (..., m)."""
    n, m = op.dims.n, op.dims.m
    states = np.asarray(states, dtype=float)
    read = _reader(states)
    e = np.zeros(states.shape[:-1] + (m,))
    for l in range(m):
        terms = []
        for i in range(n):
            terms.append(_prod(read, states[..., i], op.c[i, l].partial(i)))
            terms.append(_prod(read, op.b[i], op.c[i, l]))
        terms += [read(op.d[l, k].partial(n + k)) for k in range(m)]
        e_l = _sum(terms)
        if e_l is not None:
            e[..., l] = e_l
    return e


def reference_f(op, states):
    """Log-drift couplings, shape (..., n+m, n).  Degenerate rows:
    ``f_ij = a_ii d_xi b_j + sum_k x_k a~_ik d_xk b_j + sum_l c_il d_yl b_j``;
    free rows: ``f_(n+l)j = sum_i x_i c_il d_xi b_j + sum_k d_lk d_yk b_j``."""
    n, m = op.dims.n, op.dims.m
    states = np.asarray(states, dtype=float)
    read = _reader(states)
    f = np.zeros(states.shape[:-1] + (n + m, n))
    for j in range(n):
        db = [read(op.b[j].partial(axis)) for axis in range(n + m)]
        rows = []
        for i in range(n):
            rows.append(
                [_prod(read, op.a_diag[i], db[i])]
                + [_prod(read, states[..., k], op.a_tilde[i, k], db[k]) for k in range(n)]
                + [_prod(read, op.c[i, l], db[n + l]) for l in range(m)]
            )
        for l in range(m):
            rows.append(
                [_prod(read, states[..., i], op.c[i, l], db[i]) for i in range(n)]
                + [_prod(read, op.d[l, k], db[n + k]) for k in range(m)]
            )
        for r, terms in enumerate(rows):
            f_rj = _sum(terms)
            if f_rj is not None:
                f[..., r, j] = f_rj
    return f
