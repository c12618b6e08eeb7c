"""Operator words on the infinite wedge and their vacuum correlator.

A word is a tuple of atoms in operator order (leftmost first): `Alpha`,
`ExpAlpha`, `ExpUF2`, `CalE` and `AStarOp`, each applied by the wedge
engine `fock`.  `correlator` applies a word to the vacuum and pairs the
result with a boson boundary, under an energy cap from
`default_energy_cap`.  No command runs a word: the I-coefficients and the
Hodge series build their bra and ket in `icoeff`, so this module is loaded
only by callers of the library, such as the tests that pin those routes
against the general evaluator.
"""

from __future__ import annotations

from collections import namedtuple

from .fock import (FockState, apply_alpha, apply_Astar, apply_calE, apply_exp_alpha,
                   apply_expUF2, boson_state, inner_product)
from .qseries import INF


Alpha = namedtuple("Alpha", "r")
ExpAlpha = namedtuple("ExpAlpha", "r")  # r = +1 or -1
ExpUF2 = namedtuple("ExpUF2", "scale u_var", defaults=(1, "u"))
CalE = namedtuple("CalE", "r z")
AStarOp = namedtuple("AStarOp", "a b")


def default_energy_cap(word, left_energy: int, vars, order) -> int:
    """Upper bound on intermediate energies that can reach the pairing.

    A state of energy E contributes only if the remaining atoms can lower it
    back to the boundary energy.  Plain alphas and single weighted moves
    lower by at most |r| each; the hypergeometric operators pay one unit of
    series valuation per unit of energy moved, so their total reach is
    bounded by the truncation budget; exponential alphas only raise toward
    the cap (their unlimited lowering never needs states above it).  Hence
    boundary energy + series budget + sum |r| is a sound cap.  The
    capped-versus-enlarged-cap property test exercises this bound.
    """
    budget = max((o for o in order if o != INF), default=0)
    shift = sum(abs(atom.r) for atom in word if isinstance(atom, (Alpha, CalE)))
    return int(left_energy + budget + shift)


def correlator(word, mu_left, vars, order, energy_cap=None) -> MultiSeries:
    """Vacuum expectation of an operator word against a boson boundary.

    The word is given in operator order (leftmost first) and applied to the
    vacuum right to left; the result is paired with the boson state of
    mu_left (or with the vacuum when mu_left is None).  Exact to the
    truncation contract carried by the returned series.
    """
    vars = tuple(vars)
    order = tuple(order)
    left_energy = sum(mu_left) if mu_left else 0
    if energy_cap is None:
        energy_cap = default_energy_cap(word, left_energy, vars, order)
    state = FockState.vacuum(vars)
    for atom in reversed(word):
        if isinstance(atom, Alpha):
            state = apply_alpha(atom.r, state, energy_cap)
        elif isinstance(atom, ExpAlpha):
            state = apply_exp_alpha(atom.r, state, energy_cap)
        elif isinstance(atom, ExpUF2):
            state = apply_expUF2(state, atom.u_var, atom.scale, order)
        elif isinstance(atom, CalE):
            state = apply_calE(atom.r, atom.z.truncated(order), state, energy_cap)
        elif isinstance(atom, AStarOp):
            state = apply_Astar(atom.a.truncated(order), atom.b.truncated(order),
                                state, energy_cap)
        else:
            raise TypeError(f"unknown operator atom {atom!r}")
    if mu_left:
        bra = boson_state(mu_left, vars)
        result = inner_product(bra, state)
    else:
        result = state.coefficient(())
    return result.truncated(order)
