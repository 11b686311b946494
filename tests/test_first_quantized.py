"""``evolve`` and ``apply`` of creation strings against first quantization.

For a number-conserving quadratic H = sum_ij h_ij c_dag_i c_j, time evolution
maps each creation operator to a combination of creation operators,
exp(-iHt) c_dag_i exp(iHt) = sum_j U_ji c_dag_j with the one-particle
U = exp(-iht). An N-particle amplitude is then a minor of U:

* fermions: det U[S, I] for output modes S (ascending) and the input
  string's modes I in the order they were created (Terhal and DiVincenzo,
  PRA 65, 032325, 2002);
* bosons: perm U[S, I] / sqrt(prod n! prod m!) for input and output
  occupations n and m, S and I listing each mode as often as it is occupied
  (Scheel, quant-ph/0406127, 2004).

The oracle needs only numpy on an M x M matrix. It shares no code with
``embed`` or the block spectrum: output basis states are addressed through
``ModeRegister.index_of``, with the sign that the operators module
documents. A fermion's annihilator carries (-1)**(occupations of the
earlier-declared fermion modes), so creating the occupied fermion modes of
a basis state in ascending declaration order, leftmost first, gives that
basis vector with sign +1, and bosonic creation commutes with it.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwave import (
    apply,
    boson,
    build_register,
    creation,
    evolve,
    fermion,
    vacuum_state,
)
from qwave.operators import _ladder_hermitian, embed

MAX_DIM = 512


def _permanent(m: np.ndarray) -> complex:
    n = len(m)
    return sum((math.prod(m[k, s[k]] for k in range(n))
                for s in itertools.permutations(range(n))), 0.0)


def _one_particle_unitary(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _oracle(reg, fermions, bosons, h_f, h_b, made_f, made_b, t):
    """Amplitudes of exp(-iHt) applied to the creation string, the fermion
    modes created in the order ``made_f`` and the bosons ``made_b`` (indices
    into ``fermions`` and ``bosons``)."""
    u_f = _one_particle_unitary(h_f, t)
    u_b = _one_particle_unitary(h_b, t)
    n_in = np.bincount(np.array(made_b, dtype=int), minlength=len(bosons))
    norm_in = math.prod(math.factorial(int(n)) for n in n_in)
    out = np.zeros(reg.dim, dtype=complex)
    for s_f in itertools.combinations(range(len(fermions)), len(made_f)):
        det = np.linalg.det(u_f[np.ix_(s_f, made_f)]) if made_f else 1.0
        for s_b in itertools.combinations_with_replacement(range(len(bosons)),
                                                           len(made_b)):
            m = np.bincount(np.array(s_b, dtype=int), minlength=len(bosons))
            perm = _permanent(u_b[np.ix_(s_b, made_b)]) if made_b else 1.0
            norm = math.prod(math.factorial(int(k)) for k in m) * norm_in
            occ = [0] * len(reg.modes)
            for k in s_f:
                occ[fermions[k]] = 1
            for k, count in enumerate(m):
                occ[bosons[k]] = int(count)
            out[reg.index_of(occ)] = det * perm / math.sqrt(norm)
    return out


def _hermitian(draw, n: int, complex_hopping: bool) -> np.ndarray:
    x = st.floats(-2.0, 2.0, allow_nan=False)
    a = np.array(draw(st.lists(x, min_size=n * n, max_size=n * n))).reshape(n, n)
    h = a + a.T
    if complex_hopping:
        b = np.array(draw(st.lists(x, min_size=n * n, max_size=n * n))).reshape(n, n)
        h = h + 1j * (b - b.T)
    return h


def _hamiltonian(reg, labels, h):
    """sum_ij h_ij c_dag_i c_j over the named modes of one species, built
    from the scatter builders where the coefficient is real and from
    operator products where it is not."""
    terms = []
    for i, label in enumerate(labels):
        n = np.arange(reg.mode(label).dim)
        terms.append(embed(reg, {label: np.diag(h[i, i].real * n)}))
        for j in range(i + 1, len(labels)):
            terms.append(_ladder_hermitian(reg, (label,), (labels[j],), h[i, j].real))
            if h[i, j].imag:
                hop = creation(reg, label) @ creation(reg, labels[j]).dag()
                terms.append(1j * h[i, j].imag * hop - 1j * h[i, j].imag * hop.dag())
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


@st.composite
def _cases(draw):
    kinds = draw(st.lists(st.sampled_from(["fermion", "boson"]),
                          min_size=2, max_size=6))
    fermions = [p for p, k in enumerate(kinds) if k == "fermion"]
    bosons = [p for p, k in enumerate(kinds) if k == "boson"]
    n_f = draw(st.integers(0, min(3, len(fermions))))
    n_b = draw(st.integers(0, 3 - n_f)) if bosons else 0
    assume(n_f + n_b >= 1)
    cutoff = max(n_b, 1)
    modes = [fermion(f"m{p}") if k == "fermion" else boson(f"m{p}", cutoff)
             for p, k in enumerate(kinds)]
    assume(2 ** len(fermions) * (cutoff + 1) ** len(bosons) <= MAX_DIM)
    made_f = draw(st.permutations(range(len(fermions))))[:n_f]
    made_b = draw(st.lists(st.integers(0, len(bosons) - 1), min_size=n_b,
                           max_size=n_b)) if bosons else []
    # the string's modes come in a drawn order, the species interleaved;
    # only the fermions' order among themselves changes a sign
    string = draw(st.permutations([("f", k) for k in made_f]
                                  + [("b", k) for k in made_b]))
    made_f = [k for species, k in string if species == "f"]
    complex_hopping = draw(st.booleans())
    h_f = _hermitian(draw, len(fermions), complex_hopping)
    h_b = _hermitian(draw, len(bosons), complex_hopping)
    t = draw(st.floats(0.0, 3.0, allow_nan=False))
    return (build_register(modes), fermions, bosons, made_f, made_b, string,
            h_f, h_b, t)


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_evolve_and_apply_match_the_first_quantized_minors(case):
    reg, fermions, bosons, made_f, made_b, string, h_f, h_b, t = case
    label = lambda species, k: f"m{(fermions if species == 'f' else bosons)[k]}"
    # the rightmost creation acts first
    psi = vacuum_state(reg)
    for species, k in reversed(string):
        psi = apply(creation(reg, label(species, k)), psi, renormalize=True)
    want = _oracle(reg, fermions, bosons, h_f, h_b, made_f, made_b, 0.0)
    assert np.abs(psi.amplitudes - want).max() <= 1e-12

    h = None
    for labels, coupling in (([f"m{p}" for p in fermions], h_f),
                             ([f"m{p}" for p in bosons], h_b)):
        if labels:
            part = _hamiltonian(reg, labels, coupling)
            h = part if h is None else h + part
    got = evolve(psi, h, t).amplitudes
    want = _oracle(reg, fermions, bosons, h_f, h_b, made_f, made_b, t)
    assert np.abs(got - want).max() <= 1e-12
