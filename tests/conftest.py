"""Shared fixtures: parsed corpus files, their value modules, random staircases."""

from pathlib import Path

import pytest

from singval.algebra import value_set
from singval.curve import ring_ideal
from singval.lattice import iter_box
from singval.schemas import load_input

from randmod import random_modules

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
CONCRETE = ["cusp", "e8", "semigroup345", "node", "tacnode"]
GORENSTEIN = ["cusp", "e8", "node", "tacnode"]
ABSTRACT = ["abstract_e8"]


@pytest.fixture(scope="session")
def corpus():
    """name -> InputBundle for every corpus file."""
    return {name: load_input(CORPUS / f"{name}.json") for name in CONCRETE + ABSTRACT}


@pytest.fixture(scope="session")
def curves(corpus):
    return {name: corpus[name].curve_input.curve for name in CONCRETE}


@pytest.fixture(scope="session")
def ring_vms(curves):
    """Value module of each corpus ring."""
    return {name: value_set(ring_ideal(curve)) for name, curve in curves.items()}


@pytest.fixture(scope="session")
def ideal_vms(corpus):
    """(curve name, ideal name) -> value module, over every corpus ideal."""
    out = {}
    for name in CONCRETE:
        ci = corpus[name].curve_input
        out[(name, "ring")] = value_set(ring_ideal(ci.curve))
        for iname, ideal in ci.ideals.items():
            out[(name, iname)] = value_set(ideal)
    return out


@pytest.fixture(scope="session")
def rand_mods():
    """100 random finitely determined staircases, fixed seed, r in {1, 2}."""
    return random_modules(100, seed=20260814)


def chain_total(vm, v, order):
    """c_partial summed along the chain from v to v + 1 that raises the
    coordinates in `order`, one step each."""
    total, cur = 0, list(v)
    for i in order:
        total += vm.c_partial(tuple(cur), i)
        cur[i] += 1
    return total


def pairing_report(vm):
    """Pointwise excess of the count pairing over d, where positive: (v,
    c(v) + c(gamma - v - 1), d) for every v in [-1, gamma] where the sum
    exceeds d.  Empty for rings and self-dual modules; general modules can
    genuinely exceed the bound."""
    d = vm.r
    return [(v, s, d) for v in iter_box((-1,) * d, vm.gamma)
            if (s := vm.c_total(v) + vm.mirror(v)[1]) > d]
