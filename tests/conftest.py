from fractions import Fraction

import pytest

from freeprod.engine import IdealDescriptor
from freeprod.model import AtomSpec, FactorSpec, ProblemSpec, normalize_problem


def make_factor(name, masses, labels=None, isolated=None, diffuse=0, trace=True):
    masses = [Fraction(m) for m in masses]
    if labels is None:
        labels = [f"{name.lower()}{i + 1}" for i in range(len(masses))]
    if isolated is None:
        isolated = [True] * len(masses)
    atoms = tuple(
        AtomSpec(label, mass, iso)
        for label, mass, iso in zip(labels, masses, isolated)
    )
    return FactorSpec(
        name,
        atoms,
        diffuse_mass=Fraction(diffuse),
        diffuse_state_is_trace=trace,
    )


def make_problem(*factors, tail=None):
    return normalize_problem(ProblemSpec(tuple(factors), tail=tail))


def intersect_ideals(d1: IdealDescriptor, d2: IdealDescriptor) -> IdealDescriptor:
    """Lattice meet: intersect summand sets; kernel sets unite; zero absorbs."""
    killed = d1.killed_summands & d2.killed_summands
    if d1.character_part is None or d2.character_part is None:
        part = None
    else:
        part = d1.character_part | d2.character_part
    return IdealDescriptor(killed, part)


@pytest.fixture
def worked_problem():
    """The two-factor instance whose decomposition is known in closed form."""
    a = make_factor("A", ["3/5", "3/10", "1/10"], labels=["p1", "p2", "p3"])
    b = make_factor("B", ["2/5", "3/5"], labels=["q1", "q2"])
    return make_problem(a, b)
