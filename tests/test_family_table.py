"""The family table routes every evaluator to its own family's formulas.

Reciprocity (sJ)(sG) = 1 and J*G = t are symmetric in a J/G swap, so they
cannot tell a record whose J and G (or sJ and sG) entries are exchanged; these
tests compare each dispatcher with the family function it must call, bit for
bit.
"""

import itertools

import numpy as np
import pytest

from viscobessel.models import (
    FAMILIES,
    ModelParams,
    bessel_G_curve,
    bessel_G_laplace,
    bessel_J_curve,
    bessel_J_laplace,
    eval_G_curve,
    eval_J_curve,
    laplace_sG,
    laplace_sJ,
    maxwell,
    memory_phi_curve,
)
from viscobessel.models.bessel_family import (
    bessel_creep_integral_curve,
    bessel_relax_integral_curve,
)
from viscobessel.models.evaluate import (
    FAMILY_TABLE,
    creep_integral_curve,
    family_of,
    relax_integral_curve,
)
from viscobessel.errors import DomainError
from viscobessel.models.params import LAWS, PARAMS

S_VALUES = (0.01, 1.0, 37.5, 1e4, 2 + 3j, -1 + 0.5j, 0.1 - 7j)
TIMES = np.geomspace(1e-3, 5.0, 57)
BOUNDS = np.concatenate(([0.0], TIMES))


def _closed_forms(lam, g):
    """The maxwell kernels at the law's (lam, g), in OWN's entry order."""
    return (
        lambda s: maxwell.J_laplace(lam, g, s),
        lambda s: maxwell.G_laplace(lam, g, s),
        lambda ts: maxwell.J_time(lam, g, ts),
        lambda ts: maxwell.G_time(lam, g, ts),
        lambda ts: maxwell.creep_integral(lam, g, ts),
        lambda ts: maxwell.relax_integral(lam, g, ts),
        g,
        (lam, g),
    )


# family -> (params, its own sJ, sG, J, G, creep, relax, glass compliance, law)
OWN = {
    "bessel": (
        ModelParams("bessel", nu=0.7),
        lambda s: bessel_J_laplace(0.7, s),
        lambda s: bessel_G_laplace(0.7, s),
        lambda ts: bessel_J_curve(0.7, ts),
        lambda ts: bessel_G_curve(0.7, ts),
        lambda ts: bessel_creep_integral_curve(0.7, ts),
        lambda ts: bessel_relax_integral_curve(0.7, ts),
        1.0,
        None,
    ),
    # lam = 2(nu+1), g = 1
    "asymptotic": (ModelParams("asymptotic", nu=-0.3), *_closed_forms(1.4, 1.0)),
    # lam = 1/a1, g = a1/b1
    "fmax": (ModelParams("fmax", a1=0.4, b1=2.5), *_closed_forms(1.0 / 0.4, 0.4 / 2.5)),
}


def test_table_covers_every_family():
    assert set(FAMILY_TABLE) == set(FAMILIES) == set(OWN)


ENTRIES = ("sJ", "sG", "J", "G", "creep", "relax", "glass", "law")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("family", sorted(OWN))
def test_dispatch_calls_the_family_functions(family, entry):
    # one case per record entry, so a swapped or misrouted entry is named
    params, *own = OWN[family]
    own = dict(zip(ENTRIES, own))
    if entry in ("sJ", "sG"):
        dispatch = laplace_sJ if entry == "sJ" else laplace_sG
        for s in S_VALUES:
            assert dispatch(params, s) == own[entry](s)
    elif entry in ("J", "G"):
        dispatch = eval_J_curve if entry == "J" else eval_G_curve
        assert np.array_equal(dispatch(params, TIMES), own[entry](TIMES))
    elif entry in ("creep", "relax"):
        dispatch = creep_integral_curve if entry == "creep" else relax_integral_curve
        assert np.array_equal(dispatch(params, BOUNDS), own[entry](BOUNDS))
    elif entry == "glass":
        assert family_of(params).glass(params) == own["glass"]
    else:  # the law lives in LAWS alone, not in the record
        assert (LAWS[family](params) if family in LAWS else None) == own["law"]
        assert not hasattr(family_of(params), "law")


SHAPES = {"scalar": 0.3, "1-D": [0.1, 0.2, 0.3, 0.4], "(3, 1)": [[0.1], [0.2], [0.3]],
          "(2, 2)": [[0.1, 0.2], [0.3, 0.4]]}


@pytest.mark.parametrize("times", SHAPES.values(), ids=SHAPES)
@pytest.mark.parametrize("entry", ["J", "G", "creep", "relax", "Phi"])
@pytest.mark.parametrize("family", sorted(OWN))
def test_time_functions_keep_the_input_shape(family, entry, times):
    # a float for a scalar, else the input's shape, each value bit for bit
    # the one the flattened times give; Phi = -dG/dt is the cm check's (at
    # these times asymptotic lam sqrt(t) is below relaxation_memory's
    # PHI_CF_MIN = 1 and fmax's on both sides of it)
    params, law = OWN[family][0], OWN[family][-1]
    if entry != "Phi":
        fn = lambda ts: getattr(family_of(params), entry)(params, ts, None)  # noqa: E731
    elif law is None:
        fn = lambda ts: memory_phi_curve(params.nu, ts)  # noqa: E731
    else:
        fn = lambda ts: maxwell.relaxation_memory(*law, ts)  # noqa: E731
    out, flat = fn(times), fn(np.ravel(times))
    if np.ndim(times) == 0:
        assert type(out) is float and out == flat[0]
    else:
        assert isinstance(out, np.ndarray) and out.shape == np.shape(times)
        assert np.array_equal(out.ravel(), flat)


# every family against every set of given fields: the one that fits gives the
# label, each other one the arity message; the CLI prints both, so the
# strings are pinned
VALUES = {"nu": 0.5, "a1": 0.4, "b1": 2.5}
ARITY = {"bessel": "family 'bessel' takes exactly nu",
         "asymptotic": "family 'asymptotic' takes exactly nu",
         "fmax": "family 'fmax' takes exactly a1 and b1"}
LABELS = {"bessel": "bessel[nu=0.5]", "asymptotic": "asymptotic[nu=0.5]",
          "fmax": "fmax[a1=0.4;b1=2.5]"}


@pytest.mark.parametrize("given", [c for n in range(4) for c in itertools.combinations(VALUES, n)],
                         ids=lambda c: "+".join(c) or "none")
@pytest.mark.parametrize("family", sorted(ARITY))
def test_params_arity_message_and_label(family, given):
    kwargs = {k: VALUES[k] for k in given}
    if set(given) == set(PARAMS[family]):
        assert ModelParams(family, **kwargs).label() == LABELS[family]
    else:
        with pytest.raises(DomainError) as err:
            ModelParams(family, **kwargs)
        assert str(err.value) == ARITY[family]


def test_flag_families_are_derived_from_params():
    from viscobessel.cli import _FLAG_FAMILIES

    assert PARAMS == {"bessel": ("nu",), "fmax": ("a1", "b1"), "asymptotic": ("nu",)}
    assert FAMILIES == tuple(PARAMS)
    literal = {"nu": ("bessel", "asymptotic"), "a1": ("fmax",), "b1": ("fmax",)}
    assert _FLAG_FAMILIES == literal and list(_FLAG_FAMILIES) == list(literal)
