"""The direct image of omega^k as the library first computed it: e^(k psi)
times the Todd series, pushed forward at the asked genus, for every genus
anew, and its Chern classes read off the whole character by Newton's
identities.  The library pushes forward once per (k, truncation) and adds
the genus to ch_0 alone; this is what that must equal.
"""
from chowcalc.bundles import chern_from_character
from chowcalc.grr import exp_psi, push_psi, pushforward_rank, todd_series


def ch_pushforward_omega_power(k, g, trunc):
    """ch_0..ch_trunc, ch_0 raised by 1 for k = 1 (the trivial R^1)."""
    total = push_psi(exp_psi(k, g, trunc) * todd_series(g, trunc))
    ch = [total.homogeneous_component(d) for d in range(trunc + 1)]
    if k == 1:
        ch[0] = ch[0] + 1
    return ch


def pushforward_bundle(k, g, trunc):
    return chern_from_character(ch_pushforward_omega_power(k, g, trunc), pushforward_rank(k, g))
